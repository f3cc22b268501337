//! Seeded workload generators: the request streams the daemons receive and
//! the random loop nests behind `cold_shapes` and `routed`.
//!
//! Every stream is built from *blocks*: a block holds each request class in
//! its exact share of the mix, spread evenly from seeded phases. Any window
//! longer than a few dozen requests therefore sees close to the nominal
//! mix, so a metric's run-to-run spread reflects the system and not the
//! luck of the draw.

use crate::oracle::{Catalog, Expect};
use crate::Workload;

/// SplitMix64: small, fast, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// A loop nest described without the IR. Loop `k` is `for lk = 1..=Nk`;
/// array `a` is `Aa` with one dimension per listed loop, subscripted by that
/// loop's index and sized by its bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shape {
    pub arrays: Vec<Vec<usize>>,
    pub nest: Vec<ShapeNode>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShapeNode {
    Loop(usize, Vec<ShapeNode>),
    /// Array references in access order; the first one is written.
    Stmt(Vec<usize>),
}

/// A random affine imperfect nest: depth 2–4, 1–3 arrays, one innermost
/// statement and, most of the time, a second statement between two loops.
pub fn random_shape(rng: &mut Rng) -> Shape {
    let depth = 2 + rng.below(3) as usize;
    let n_arrays = 1 + rng.below(3) as usize;
    // The imperfect statement sits at depth `split`, inside loops
    // 0..split, beside loop `split`. Array 0 fits in its scope.
    let split = (rng.unit() < 0.6).then(|| 1 + rng.below(depth as u64 - 1) as usize);
    let arrays: Vec<Vec<usize>> = (0..n_arrays)
        .map(|a| {
            let scope = match split {
                Some(s) if a == 0 => s,
                _ => depth,
            };
            let mut loops: Vec<usize> = (0..scope).collect();
            rng.shuffle(&mut loops);
            loops.truncate(1 + rng.below(scope.min(3) as u64) as usize);
            loops
        })
        .collect();
    let refs = match rng.below(20) {
        0..=2 => 1,
        3..=9 => 2,
        _ => 3,
    };
    let inner: Vec<usize> = (0..refs)
        .map(|_| rng.below(n_arrays as u64) as usize)
        .collect();
    let mut body = vec![ShapeNode::Stmt(inner)];
    for level in (0..depth).rev() {
        let node = ShapeNode::Loop(level, body);
        body = match split {
            Some(s) if s == level => {
                let outer: Vec<usize> = (0..arrays.len())
                    .filter(|a| arrays[*a].iter().all(|l| *l < s))
                    .collect();
                let mut refs = vec![0];
                if rng.unit() < 0.5 {
                    refs.push(rng.pick(&outer));
                }
                if rng.unit() < 0.7 {
                    vec![ShapeNode::Stmt(refs), node]
                } else {
                    vec![node, ShapeNode::Stmt(refs)]
                }
            }
            _ => vec![node],
        };
    }
    Shape { arrays, nest: body }
}

/// A program a request names: a builtin, or an inline shape of the
/// workload's catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prog {
    Builtin(&'static str),
    Shape(usize),
}

/// One model query: program, symbol bindings and cache size (elements).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    pub prog: Prog,
    pub bindings: Vec<(String, u64)>,
    pub cache: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Search {
    Pruned,
    Exhaustive,
    BoundsFree,
}

/// `advise` searches powers of two from this tile size up.
pub const TILE_MIN: u64 = 4;
/// The loop-bound stand-in of a bounds-free search (the service default).
pub const NOMINAL: u64 = 1_000_000;

/// One generated request, before rendering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Spec {
    Predict(Query),
    Analyze(Prog),
    Stats,
    Lint(Prog),
    /// Tile search; the query binds only loop bounds (none when bounds-free),
    /// every tile ranges over powers of two in `TILE_MIN..=max`.
    Advise {
        query: Query,
        search: Search,
        max: u64,
    },
    /// Re-evaluate a live model DAG. The delta rebinds every symbol, so the
    /// answer does not depend on how connections interleave.
    Revise(Query),
    Batch(Vec<Query>),
}

impl Spec {
    pub fn op(&self) -> &'static str {
        match self {
            Spec::Predict(_) => "predict",
            Spec::Analyze(_) => "analyze",
            Spec::Stats => "stats",
            Spec::Lint(_) => "lint",
            Spec::Advise { .. } => "advise",
            Spec::Revise(_) => "revise",
            Spec::Batch(_) => "batch",
        }
    }
}

/// A generated request with its expected answer.
#[derive(Debug, Clone)]
pub struct Req {
    pub spec: Spec,
    pub expect: Expect,
}

/// Everything a workload sends: warm-up requests (one per distinct warm
/// shape) and the measured stream, which the load generator cycles.
#[derive(Debug)]
pub struct Stream {
    pub warm: Vec<Req>,
    pub reqs: Vec<Req>,
}

/// Measured requests generated per workload.
pub const STREAM_LEN: usize = 4096;
/// Distinct inline shapes of `cold_shapes`: four times the daemon's
/// 256-entry model cache.
pub const COLD_SHAPES: usize = 1024;
/// Distinct inline shapes of `routed`, enough to land on both backends.
pub const ROUTED_SHAPES: usize = 32;

const SIZES: [u64; 4] = [128, 256, 512, 1024];
const TILES: [u64; 4] = [16, 32, 64, 128];
const CACHES: [u64; 4] = [1024, 2048, 8192, 32768];

/// Builtins whose models every service workload may query.
const BUILTINS: [&str; 5] = [
    "matmul",
    "tiled_matmul",
    "two_index_unfused",
    "two_index_fused",
    "tiled_two_index",
];

fn is_tile(sym: &str) -> bool {
    sym.starts_with('T')
}

/// Bindings for every free symbol of `prog`: loop bounds from `sizes`,
/// tiles from `TILES` (capped by the largest bound), or only the bounds
/// when `bounds_only`.
fn bind(
    cat: &Catalog,
    prog: Prog,
    rng: &mut Rng,
    sizes: &[u64],
    bounds_only: bool,
) -> Vec<(String, u64)> {
    let syms = cat.free_symbols(prog);
    let bounds: Vec<(String, u64)> = syms
        .iter()
        .filter(|s| !is_tile(s))
        .map(|s| (s.clone(), rng.pick(sizes)))
        .collect();
    if bounds_only {
        return bounds;
    }
    let cap = bounds.iter().map(|(_, n)| *n).max().unwrap_or(u64::MAX);
    let mut all = bounds;
    for s in syms.iter().filter(|s| is_tile(s)) {
        all.push((s.clone(), rng.pick(&TILES).min(cap)));
    }
    all.sort();
    all
}

/// Draw requests with `draw` until one has an answer, then keep it. Every
/// draw comes from the seeded generator, so the kept stream is a function
/// of the seed alone.
fn accept(
    cat: &mut Catalog,
    rng: &mut Rng,
    mut draw: impl FnMut(&Catalog, &mut Rng) -> Spec,
) -> Req {
    for _ in 0..64 {
        let spec = draw(cat, rng);
        if let Ok(expect) = cat.expect(&spec) {
            return Req { spec, expect };
        }
    }
    panic!("no answerable request in 64 draws: the generator and the model disagree");
}

/// Blocks of requests in which class `k` appears `counts[k]` times, until
/// `STREAM_LEN` requests exist. Within a block each class is spread evenly
/// from a seeded phase, so even a partial block is close to the mix.
fn blocks(
    cat: &mut Catalog,
    rng: &mut Rng,
    counts: &[usize],
    mut draw: impl FnMut(usize, &Catalog, &mut Rng) -> Spec,
) -> Vec<Req> {
    let mut out = Vec::with_capacity(STREAM_LEN);
    while out.len() < STREAM_LEN {
        let mut slots: Vec<(f64, usize)> = Vec::new();
        for (k, n) in counts.iter().enumerate() {
            let phase = rng.unit();
            slots.extend((0..*n).map(|j| ((j as f64 + phase) / *n as f64, k)));
        }
        slots.sort_by(|a, b| a.0.total_cmp(&b.0));
        for (_, k) in slots {
            out.push(accept(cat, rng, |c, r| draw(k, c, r)));
        }
    }
    out.truncate(STREAM_LEN);
    out
}

fn predict_builtin(cat: &Catalog, rng: &mut Rng) -> Query {
    let prog = Prog::Builtin(rng.pick(&BUILTINS));
    Query {
        prog,
        bindings: bind(cat, prog, rng, &SIZES, false),
        cache: rng.pick(&CACHES),
    }
}

/// Warm-up: one `predict` per program, so every model is built before the
/// measured window.
fn warm_predicts(cat: &mut Catalog, progs: &[Prog]) -> Vec<Req> {
    let mut rng = Rng::new(0);
    progs
        .iter()
        .map(|p| {
            accept(cat, &mut rng, |c, r| {
                Spec::Predict(Query {
                    prog: *p,
                    bindings: bind(c, *p, r, &SIZES, false),
                    cache: 8192,
                })
            })
        })
        .collect()
}

/// Admit `count` distinct random shapes into the catalog.
fn shapes(cat: &mut Catalog, rng: &mut Rng, count: usize) -> Vec<Prog> {
    let mut progs = Vec::with_capacity(count);
    let mut attempts = 0;
    while progs.len() < count {
        attempts += 1;
        assert!(
            attempts < 50 * count,
            "shape generator stalled at {}",
            progs.len()
        );
        if let Some(idx) = cat.admit_shape(random_shape(rng)) {
            progs.push(Prog::Shape(idx));
        }
    }
    progs
}

/// The warm-up and measured requests of `w` under `seed`.
pub fn stream(w: Workload, seed: u64, cat: &mut Catalog) -> Stream {
    let mut rng = Rng::new(seed ^ (w as u64).wrapping_mul(0xa076_1d64_78bd_642f));
    let builtins: Vec<Prog> = BUILTINS.iter().map(|b| Prog::Builtin(b)).collect();
    match w {
        Workload::Interactive => {
            let reqs = blocks(cat, &mut rng, &[8, 1, 1], |k, c, r| match k {
                0 => Spec::Predict(predict_builtin(c, r)),
                1 => Spec::Analyze(Prog::Builtin(r.pick(&BUILTINS))),
                _ => Spec::Stats,
            });
            Stream {
                warm: warm_predicts(cat, &builtins),
                reqs,
            }
        }
        Workload::Advise => {
            let tmm = Prog::Builtin("tiled_matmul");
            let t2i = Prog::Builtin("tiled_two_index");
            // Search costs differ tenfold across program, strategy and N,
            // so every block of 200 holds each combination in a fixed
            // share: tiled_matmul
            // pruned 60% (~4 ms each); tiled_two_index pruned 20%,
            // exhaustive 12%, bounds-free 8% (17-56 ms). With the cheap
            // share at exactly half, the median would fall in the gap
            // between the two modes and swing with every run.
            let mut combos = Vec::new();
            let mut counts = Vec::new();
            for (prog, search, per) in [
                (tmm, Search::Pruned, 15),
                (t2i, Search::Pruned, 5),
                (t2i, Search::Exhaustive, 3),
                (t2i, Search::BoundsFree, 2),
            ] {
                for n in SIZES {
                    for cache in [2048, 8192] {
                        combos.push((prog, search, n, cache));
                        counts.push(per);
                    }
                }
            }
            let reqs = blocks(cat, &mut rng, &counts, |k, c, r| {
                let (prog, search, n, cache) = combos[k];
                // One N for every loop bound; bounds-free binds none.
                let bindings = if search == Search::BoundsFree {
                    Vec::new()
                } else {
                    bind(c, prog, r, &[n], true)
                };
                Spec::Advise {
                    query: Query {
                        prog,
                        bindings,
                        cache,
                    },
                    search,
                    max: n.min(256),
                }
            });
            Stream {
                warm: warm_predicts(cat, &[tmm, t2i]),
                reqs,
            }
        }
        Workload::ColdShapes => {
            let progs = shapes(cat, &mut rng, COLD_SHAPES);
            let reqs = blocks(cat, &mut rng, &[7, 3], |k, c, r| {
                let prog = r.pick(&progs);
                match k {
                    0 => Spec::Predict(Query {
                        prog,
                        bindings: bind(c, prog, r, &[16, 32, 64, 128], false),
                        cache: r.pick(&[64, 256, 1024]),
                    }),
                    _ => Spec::Lint(prog),
                }
            });
            // No warm shapes: the point is the cold path.
            Stream {
                warm: Vec::new(),
                reqs,
            }
        }
        Workload::MixedOpen => {
            let tmm = Prog::Builtin("tiled_matmul");
            let reqs = blocks(cat, &mut rng, &[8, 4, 2, 2, 2, 1, 1], |k, c, r| match k {
                0 => Spec::Predict(predict_builtin(c, r)),
                1 => Spec::Revise(predict_builtin(c, r)),
                2 => Spec::Analyze(Prog::Builtin(r.pick(&BUILTINS))),
                3 => Spec::Lint(Prog::Builtin(r.pick(&BUILTINS))),
                4 => Spec::Advise {
                    query: Query {
                        prog: tmm,
                        bindings: bind(c, tmm, r, &[128], true),
                        cache: 2048,
                    },
                    search: Search::Pruned,
                    max: 64,
                },
                5 => Spec::Batch((0..4).map(|_| predict_builtin(c, r)).collect()),
                _ => Spec::Stats,
            });
            // Models, then one revise session per builtin.
            let mut warm = warm_predicts(cat, &builtins);
            let mut wrng = Rng::new(1);
            for p in &builtins {
                warm.push(accept(cat, &mut wrng, |c, r| {
                    Spec::Revise(Query {
                        prog: *p,
                        bindings: bind(c, *p, r, &SIZES, false),
                        cache: 8192,
                    })
                }));
            }
            Stream { warm, reqs }
        }
        Workload::Routed => {
            let progs = shapes(cat, &mut rng, ROUTED_SHAPES);
            let reqs = blocks(cat, &mut rng, &[8, 1, 1], |k, c, r| {
                let prog = r.pick(&progs);
                match k {
                    0 => Spec::Predict(Query {
                        prog,
                        bindings: bind(c, prog, r, &SIZES, false),
                        cache: r.pick(&CACHES),
                    }),
                    1 => Spec::Analyze(prog),
                    _ => Spec::Stats,
                }
            });
            Stream {
                warm: warm_predicts(cat, &progs),
                reqs,
            }
        }
        Workload::PaperTables => Stream {
            warm: Vec::new(),
            reqs: Vec::new(),
        },
    }
}

fn json_bindings(b: &[(String, u64)]) -> String {
    let fields: Vec<String> = b.iter().map(|(s, v)| format!("\"{s}\":{v}")).collect();
    format!("{{{}}}", fields.join(","))
}

fn json_strings(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
    format!("[{}]", quoted.join(","))
}

/// Render `spec` as one request line (with its newline); the catalog
/// supplies inline programs and symbol names, `timing` asks for
/// `server_timing`.
pub fn render(spec: &Spec, id: usize, cat: &Catalog, timing: bool) -> String {
    let program = |p: Prog| match p {
        Prog::Builtin(name) => format!("\"{name}\""),
        Prog::Shape(i) => cat.shape_json(i).to_string(),
    };
    let query = |q: &Query| {
        format!(
            ",\"program\":{},\"bindings\":{},\"cache\":{}",
            program(q.prog),
            json_bindings(&q.bindings),
            q.cache
        )
    };
    let body = match spec {
        Spec::Predict(q) => query(q),
        Spec::Analyze(p) | Spec::Lint(p) => format!(",\"program\":{}", program(*p)),
        Spec::Stats => String::new(),
        Spec::Advise { query: q, search, max } => {
            let syms: Vec<String> = cat.free_symbols(q.prog).into_iter().filter(|s| is_tile(s)).collect();
            let maxes = vec![max.to_string(); syms.len()].join(",");
            let space = format!(
                ",\"space\":{{\"syms\":{},\"max\":[{maxes}],\"min\":{TILE_MIN}}}",
                json_strings(&syms)
            );
            match search {
                Search::BoundsFree => {
                    let bounds: Vec<String> = cat.free_symbols(q.prog).into_iter().filter(|s| !is_tile(s)).collect();
                    format!(
                        ",\"program\":{},\"cache\":{},\"bounds_free\":{{\"bounds\":{},\"nominal\":{NOMINAL}}}{space}",
                        program(q.prog),
                        q.cache,
                        json_strings(&bounds)
                    )
                }
                Search::Pruned | Search::Exhaustive => format!(
                    "{}{space},\"mode\":\"{}\"",
                    query(q),
                    if *search == Search::Pruned { "pruned" } else { "exhaustive" }
                ),
            }
        }
        Spec::Revise(q) => format!(
            ",\"base\":\"{:016x}\",\"program\":{},\"delta\":{{\"bindings\":{},\"cache_sizes\":[{}]}}",
            cat.shape_hash(q.prog),
            program(q.prog),
            json_bindings(&q.bindings),
            q.cache
        ),
        Spec::Batch(qs) => {
            let subs: Vec<String> = qs
                .iter()
                .enumerate()
                .map(|(k, q)| format!("{{\"op\":\"predict\",\"id\":{k}{}}}", query(q)))
                .collect();
            format!(",\"requests\":[{}]", subs.join(","))
        }
    };
    let timing = if timing {
        ",\"server_timing\":true"
    } else {
        ""
    };
    format!("{{\"op\":\"{}\",\"id\":{id}{timing}{body}}}\n", spec.op())
}

/// Offsets (seconds from the window start) of a Poisson arrival process at
/// `rate` per second, up to `seconds`.
pub fn poisson_schedule(seed: u64, rate: f64, seconds: f64) -> Vec<f64> {
    let mut rng = Rng::new(seed ^ 0x5eed_f00d_a771_7a15);
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        // Inverse-CDF draw; `1 - u` is in (0, 1], so the log is finite.
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers;
    use std::collections::HashSet;

    fn lines(w: Workload, seed: u64) -> Vec<String> {
        let mut cat = Catalog::new().unwrap();
        let s = stream(w, seed, &mut cat);
        s.warm
            .iter()
            .chain(&s.reqs)
            .enumerate()
            .map(|(i, r)| render(&r.spec, i, &cat, false))
            .collect()
    }

    #[test]
    fn streams_are_a_function_of_the_seed() {
        for w in Workload::ALL {
            if w == Workload::PaperTables {
                continue;
            }
            let a = lines(w, 42);
            assert_eq!(
                a.len(),
                STREAM_LEN + stream(w, 42, &mut Catalog::new().unwrap()).warm.len()
            );
            assert_eq!(a, lines(w, 42), "{}: same seed, different bytes", w.name());
            assert_ne!(a, lines(w, 7), "{}: seed ignored", w.name());
        }
    }

    #[test]
    fn cold_shapes_are_distinct_on_the_wire() {
        let mut cat = Catalog::new().unwrap();
        stream(Workload::ColdShapes, 42, &mut cat);
        let hashes: HashSet<u64> = (0..COLD_SHAPES)
            .map(|i| {
                let doc = layers::parse_json(cat.shape_json(i)).unwrap();
                layers::canonical_hash(&layers::decode_program(&doc).unwrap())
            })
            .collect();
        assert!(hashes.len() >= 1024, "{} distinct shapes", hashes.len());
    }

    #[test]
    fn poisson_schedule_keeps_its_rate() {
        let schedule = poisson_schedule(42, 1000.0, 30.0);
        assert!(schedule.len() > 20_000);
        let mean_gap = schedule[19_999] / 20_000.0;
        assert!(
            (mean_gap * 1000.0 - 1.0).abs() < 0.02,
            "mean gap {mean_gap}"
        );
        assert!(schedule.windows(2).all(|w| w[0] <= w[1]));
        assert_ne!(
            poisson_schedule(7, 1000.0, 1.0),
            poisson_schedule(42, 1000.0, 1.0)
        );
    }

    #[test]
    fn blocks_keep_the_mix_exact() {
        let mut cat = Catalog::new().unwrap();
        let s = stream(Workload::MixedOpen, 3, &mut cat);
        let first: Vec<&str> = s.reqs[..20].iter().map(|r| r.spec.op()).collect();
        for (op, n) in [
            ("predict", 8),
            ("revise", 4),
            ("analyze", 2),
            ("lint", 2),
            ("advise", 2),
            ("batch", 1),
            ("stats", 1),
        ] {
            assert_eq!(first.iter().filter(|o| **o == op).count(), n, "{op}");
        }
    }

    /// Every generated request, rendered, gets the oracle's answer from a
    /// fresh engine: generator, renderer and oracle agree with the daemon's
    /// own request path.
    #[test]
    fn engine_answers_match_the_oracle() {
        for w in Workload::ALL {
            if w == Workload::PaperTables {
                continue;
            }
            let mut cat = Catalog::new().unwrap();
            let s = stream(w, 11, &mut cat);
            let engine = layers::engine();
            for (i, r) in s.warm.iter().chain(s.reqs.iter().take(120)).enumerate() {
                let reply = layers::handle_line(&engine, &render(&r.spec, i, &cat, i % 2 == 0));
                let v = layers::parse_json(&reply).unwrap();
                assert_eq!(r.expect.check(&v), Ok(()), "{} {}", w.name(), r.spec.op());
            }
        }
    }
}
