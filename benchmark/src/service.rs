//! The five service workloads: set-up, the measured window, and the
//! metrics derived from it.

use crate::fleet::{self, Fleet};
use crate::gen::{self, Req, Stream};
use crate::load::{self, Load};
use crate::oracle::Catalog;
use crate::report::{self, Outcome};
use crate::stats::{mean, median, sorted};
use crate::{trace, Opts, Workload};
use std::time::{Duration, Instant};

enum Traffic {
    Closed { conns: usize },
    Open { rate: f64, conns: usize },
}

fn traffic(w: Workload) -> Traffic {
    match w {
        Workload::Interactive => Traffic::Closed { conns: 1 },
        Workload::MixedOpen => Traffic::Open {
            rate: 1000.0,
            conns: 2,
        },
        _ => Traffic::Closed { conns: 2 },
    }
}

fn render(cat: &Catalog, reqs: &[Req], timing: bool) -> Vec<String> {
    reqs.iter()
        .enumerate()
        .map(|(i, r)| gen::render(&r.spec, i, cat, timing))
        .collect()
}

/// Start the fleet and warm it: the `setup_s` interval.
fn set_up(
    w: Workload,
    opts: &Opts,
    cat: &Catalog,
    stream: &Stream,
) -> Result<(Fleet, f64), String> {
    let started = Instant::now();
    let fleet = Fleet::start(&opts.bin_dir, w == Workload::Routed)?;
    let warm = load::sequential(fleet.entry, &stream.warm, &render(cat, &stream.warm, false));
    if warm.failed() > 0 {
        return Err(format!("warm-up failed: {:?}", warm.failures));
    }
    Ok((fleet, started.elapsed().as_secs_f64()))
}

/// One raw scrape per daemon, backends first.
fn scrape(fleet: &Fleet) -> Result<Vec<String>, String> {
    fleet
        .daemons
        .iter()
        .map(|d| fleet::scrape(d.addr))
        .collect()
}

/// Sum of every series named `name` (any labels) in `text`, or only the
/// one whose labels are exactly `labels` when given.
fn series(text: &str, name: &str, labels: Option<&str>) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .filter(|(key, _)| {
            let (n, l) = key
                .split_once('{')
                .map_or((*key, ""), |(n, rest)| (n, rest.trim_end_matches('}')));
            n == name && labels.is_none_or(|want| want == l)
        })
        .filter_map(|(_, v)| v.parse::<f64>().ok())
        .sum()
}

/// One measured window on a set-up fleet.
struct Window {
    load: Load,
    /// The daemons' user + system CPU per ok reply, ms.
    cpu_ms_per_ok: f64,
    /// Sum of the daemons' peak resident sets, MB.
    rss_mb: f64,
    /// Scrapes before and after, one per daemon, backends first.
    before: Vec<String>,
    after: Vec<String>,
    backends: usize,
}

impl Window {
    /// Load `fleet` for `seconds` from stream entry `first` on, then stop
    /// it; CPU and memory come from `/proc`, counters from a scrape on each
    /// side of the window. Each segment of an open-loop run draws its own
    /// arrival schedule.
    #[allow(clippy::too_many_arguments)]
    fn measure(
        w: Workload,
        opts: &Opts,
        fleet: Fleet,
        reqs: &[Req],
        lines: &[String],
        seconds: f64,
        segment: usize,
        first: usize,
    ) -> Result<Window, String> {
        let before = scrape(&fleet)?;
        let pids = fleet.pids();
        let cpu = || -> Result<f64, String> { pids.iter().map(|p| fleet::cpu_seconds(*p)).sum() };
        let cpu_before = cpu()?;
        let load = match traffic(w) {
            Traffic::Closed { conns } => {
                load::closed(fleet.entry, reqs, lines, conns, seconds, first)
            }
            Traffic::Open { rate, conns } => {
                let seed = opts.seed.wrapping_add(segment as u64);
                let schedule = gen::poisson_schedule(seed, rate, seconds);
                load::open(fleet.entry, reqs, lines, conns, &schedule, first)
            }
        };
        let cpu_used = cpu()? - cpu_before;
        let rss_mb = pids
            .iter()
            .map(|p| fleet::peak_rss_mb(*p))
            .sum::<Result<f64, String>>()?;
        let after = scrape(&fleet)?;
        let backends = fleet.backends().len();
        fleet.stop();
        let ok = load.samples.iter().filter(|s| s.ok).count();
        Ok(Window {
            load,
            cpu_ms_per_ok: 1000.0 * cpu_used / ok.max(1) as f64,
            rss_mb,
            before,
            after,
            backends,
        })
    }

    /// A backend counter's growth over the window, summed over backends.
    fn backend_delta(&self, name: &str, labels: Option<&str>) -> f64 {
        (0..self.backends)
            .map(|i| series(&self.after[i], name, labels) - series(&self.before[i], name, labels))
            .sum()
    }

    fn gauge(&self, name: &str) -> f64 {
        (0..self.backends)
            .map(|i| series(&self.after[i], name, None))
            .sum()
    }

    /// A router series' growth over the window, one value per backend;
    /// empty without a router.
    fn router_delta(&self, name: &str) -> Vec<f64> {
        let (Some(before), Some(after)) = (
            self.before.get(self.backends),
            self.after.get(self.backends),
        ) else {
            return Vec::new();
        };
        let per = |text: &str| -> Vec<f64> {
            text.lines()
                .filter(|l| l.starts_with(&format!("{name}{{")))
                .filter_map(|l| l.rsplit_once(' ')?.1.parse().ok())
                .collect()
        };
        per(after)
            .iter()
            .zip(per(before))
            .map(|(a, b)| a - b)
            .collect()
    }

    /// Requests of the busiest backend over the mean per backend (1 is
    /// balanced); 0 without a router.
    fn skew(&self) -> f64 {
        let per_backend = self.router_delta("sdlo_router_backend_requests_total");
        let m = mean(&per_backend);
        if m > 0.0 {
            per_backend.iter().copied().fold(0.0, f64::max) / m
        } else {
            0.0
        }
    }
}

/// Counters every service run keeps: cache, revise, rejection and router
/// activity over the measured windows.
fn counters(windows: &[Window]) -> Vec<(&'static str, f64)> {
    let total = |name: &str, labels: Option<&str>| -> f64 {
        windows.iter().map(|w| w.backend_delta(name, labels)).sum()
    };
    let hits = total("sdlo_model_cache_hits_total", None);
    let misses = total("sdlo_model_cache_misses_total", None);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let last = windows.last().expect("at least one window");
    vec![
        (
            "server.rejected",
            total("sdlo_rejected_requests_total", None),
        ),
        ("cache.hit_ratio", ratio(hits, hits + misses)),
        (
            "cache.builds_per_kreq",
            1000.0
                * ratio(
                    total("sdlo_models_built_total", None),
                    total("sdlo_requests_total", None),
                ),
        ),
        ("cache.cached_shapes", last.gauge("sdlo_cached_shapes")),
        (
            "revise.full_builds",
            total("sdlo_revise_full_builds_total", None),
        ),
        (
            "revise.nodes_reevaluated_per_req",
            ratio(
                total("sdlo_revise_nodes_reevaluated_total", None),
                total("sdlo_requests_total", Some("op=\"revise\"")),
            ),
        ),
        ("router.backend_skew", last.skew()),
    ]
}

fn finish_checks(out: &mut Outcome, load: &Load) {
    out.attempted += load.attempted;
    out.failed += load.failed();
    out.failures.extend(load.failures.iter().cloned());
}

/// An untraced run: `setups` fleets, each set up, warmed and measured for
/// an equal share of `seconds` on its own part of the stream. Latency and
/// throughput pool every segment; peak memory and CPU are medians over
/// fleets.
pub fn run(
    w: Workload,
    opts: &Opts,
    seconds: f64,
    traced: bool,
    setups: usize,
) -> Result<Outcome, String> {
    let mut cat = Catalog::new()?;
    let stream = gen::stream(w, opts.seed, &mut cat);
    if traced {
        return run_traced(w, opts, seconds, &cat, &stream);
    }
    let lines = render(&cat, &stream.reqs, false);
    let setups = setups.max(1);
    let mut out = Outcome::default();
    let (mut setup_times, mut windows) = (Vec::new(), Vec::new());
    for segment in 0..setups {
        let (fleet, t) = set_up(w, opts, &cat, &stream)?;
        setup_times.push(t);
        let first = segment * stream.reqs.len() / setups;
        let window = Window::measure(
            w,
            opts,
            fleet,
            &stream.reqs,
            &lines,
            seconds / setups as f64,
            segment,
            first,
        )?;
        finish_checks(&mut out, &window.load);
        windows.push(window);
    }
    let latencies: Vec<f64> = windows
        .iter()
        .flat_map(|win| {
            win.load
                .samples
                .iter()
                .filter(|s| s.ok)
                .map(|s| s.latency_ns as f64)
        })
        .collect();
    let n_ok = latencies.len() as f64;
    let throughput = n_ok
        / windows
            .iter()
            .map(|win| win.load.wall)
            .sum::<f64>()
            .max(1e-9);
    let latencies = sorted(&latencies);
    out.set("throughput_rps", throughput);
    out.percentile("latency_p50_ms", &latencies, 0.50, 1e-6);
    out.percentile("latency_p99_ms", &latencies, 0.99, 1e-6);
    out.set("ok_ratio", n_ok / out.attempted.max(1) as f64);
    out.set("setup_s", median(&setup_times));
    out.set(
        "peak_rss_mb",
        median(&windows.iter().map(|win| win.rss_mb).collect::<Vec<_>>()),
    );
    // One pass over the generated request set at the measured rate.
    out.set("pass_s", gen::STREAM_LEN as f64 / throughput.max(1e-9));
    for (name, v) in counters(&windows) {
        out.counters.insert(name.to_string(), v);
    }
    out.counters.insert(
        "process.cpu_ms_per_req".into(),
        median(
            &windows
                .iter()
                .map(|win| win.cpu_ms_per_ok)
                .collect::<Vec<_>>(),
        ),
    );
    out.correct = out.failed == 0;
    Ok(out)
}

/// The traced run: (a) replay the workload with `server_timing` on every
/// request and (c) scrape around it, then (b) replay its first requests
/// in-process through the engine and through each layer.
fn run_traced(
    w: Workload,
    opts: &Opts,
    seconds: f64,
    cat: &Catalog,
    stream: &Stream,
) -> Result<Outcome, String> {
    let lines = render(cat, &stream.reqs, true);
    let (fleet, _) = set_up(w, opts, cat, stream)?;
    let window = Window::measure(w, opts, fleet, &stream.reqs, &lines, seconds, 0, 0)?;
    let load = &window.load;
    let mut out = Outcome::default();
    finish_checks(&mut out, load);
    for (name, v) in counters(std::slice::from_ref(&window)) {
        out.set(name, v);
    }
    out.set("process.cpu_ms_per_req", window.cpu_ms_per_ok);

    // Per request: client latency = queue + exec + write + residual.
    let timed: Vec<(&load::Sample, [u64; 3])> = load
        .samples
        .iter()
        .filter_map(|s| Some((s, s.timing?)))
        .collect();
    let column = |f: &dyn Fn(&load::Sample, [u64; 3]) -> f64| {
        sorted(&timed.iter().map(|(s, t)| f(s, *t)).collect::<Vec<_>>())
    };
    let latency_us = |s: &load::Sample| s.latency_ns as f64 / 1000.0;
    for (name, col) in [
        ("server.queue_us", column(&|_, t| t[0] as f64)),
        ("server.exec_us", column(&|_, t| t[1] as f64)),
        ("server.write_us", column(&|_, t| t[2] as f64)),
        (
            "transport.residual_us",
            column(&|s, t| latency_us(s) - (t[0] + t[1] + t[2]) as f64),
        ),
    ] {
        out.percentile(&format!("{name}.p50"), &col, 0.50, 1.0);
        out.percentile(&format!("{name}.p99"), &col, 0.99, 1.0);
    }
    let exec: f64 = timed.iter().map(|(_, t)| t[1] as f64).sum();
    let client: f64 = timed.iter().map(|(s, _)| latency_us(s)).sum();
    out.set(
        "engine.share",
        if client > 0.0 { exec / client } else { 0.0 },
    );
    let late = sorted(
        &load
            .samples
            .iter()
            .map(|s| s.late_ns as f64 / 1000.0)
            .collect::<Vec<_>>(),
    );
    out.percentile("gen.late_us.p99", &late, 0.99, 1.0);
    // The router's latency series covers forwarded requests only; it
    // answers `stats` itself.
    let sum: f64 = window
        .router_delta("sdlo_router_backend_latency_micros_sum")
        .iter()
        .sum();
    let count: f64 = window
        .router_delta("sdlo_router_backend_latency_micros_count")
        .iter()
        .sum();
    if count > 0.0 {
        let forwarded: Vec<f64> = load
            .samples
            .iter()
            .filter(|s| stream.reqs[s.idx].spec.op() != "stats")
            .map(latency_us)
            .collect();
        out.set("router.overhead_us.mean", mean(&forwarded) - sum / count);
    }

    let plain = render(cat, &stream.reqs, false);
    let chrome = trace::replay(
        &mut out,
        cat,
        stream,
        &plain,
        Duration::from_secs_f64(seconds / 2.0),
    );
    report::write_result(&opts.results, &format!("trace-{}.json", w.name()), &chrome)?;
    out.correct = out.failed == 0;
    Ok(out)
}
