//! Expected answers, computed in-process before any request is sent, and
//! the check of each reply against them.
//!
//! The catalog holds every program a workload may name with its built
//! model, so the oracle answers from the same libraries the daemon links,
//! but through their public functions and never through the daemon. An
//! independent anchor, a Table 3 value of the paper, pins the oracle
//! itself.

use crate::gen::{Prog, Query, Search, Shape, Spec, NOMINAL, TILE_MIN};
use crate::layers::{self, MissModel, Program, Value};
use std::collections::{BTreeMap, HashSet};

/// What a correct reply says.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    Misses(u64),
    Analyze {
        shape: u64,
        components: usize,
    },
    Stats,
    /// Diagnostic counts by severity: error, warning, info.
    Lint([u64; 3]),
    Advise {
        tiles: Vec<(String, u64)>,
        misses: u64,
    },
    Revise {
        cache: u64,
        misses: u64,
    },
    Batch(Vec<u64>),
}

struct Entry {
    program: Program,
    json: String,
    hash: u64,
    free: Vec<String>,
    model: MissModel,
    components: usize,
    lint: [u64; 3],
}

impl Entry {
    /// Build, probe and lint `program`; `None` if any step panics or the
    /// model cannot evaluate a representative binding.
    fn admit(program: Program) -> Option<Entry> {
        let entry = layers::quietly(|| {
            let model = layers::build_model(&program);
            let free = layers::free_symbols(&program);
            let probe: Vec<(String, u64)> = free.iter().map(|s| (s.clone(), 32)).collect();
            layers::predict(&model, &probe, 256).ok()?;
            Some(Entry {
                json: layers::program_json(&program),
                hash: layers::canonical_hash(&program),
                components: layers::component_count(&model),
                lint: layers::lint_counts(&program),
                free,
                model,
                program,
            })
        });
        entry.flatten()
    }
}

/// Every program of one workload, with its model and memoized searches.
pub struct Catalog {
    builtins: Vec<(&'static str, Entry)>,
    shapes: Vec<Entry>,
    hashes: HashSet<u64>,
    searches: BTreeMap<String, Expect>,
}

impl Catalog {
    /// The builtins, checked against the anchor: Table 3's N=512,
    /// 64³-tile row predicts 6,291,456 misses at 8192 elements.
    pub fn new() -> Result<Catalog, String> {
        let builtins = layers::BUILTINS
            .iter()
            .map(|name| {
                Entry::admit(layers::builtin(name))
                    .map(|e| (*name, e))
                    .ok_or_else(|| format!("builtin `{name}` does not build"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let cat = Catalog {
            builtins,
            shapes: Vec::new(),
            hashes: HashSet::new(),
            searches: BTreeMap::new(),
        };
        let anchor = Query {
            prog: Prog::Builtin("tiled_matmul"),
            bindings: ["Ni", "Nj", "Nk"]
                .iter()
                .map(|s| (s.to_string(), 512))
                .chain(["Ti", "Tj", "Tk"].iter().map(|s| (s.to_string(), 64)))
                .collect(),
            cache: 8192,
        };
        match cat.misses(&anchor) {
            Ok(6_291_456) => Ok(cat),
            other => Err(format!(
                "anchor: Table 3 row 2 predicts {other:?}, not 6291456"
            )),
        }
    }

    fn entry(&self, prog: Prog) -> &Entry {
        match prog {
            Prog::Builtin(name) => {
                &self
                    .builtins
                    .iter()
                    .find(|(n, _)| *n == name)
                    .expect("workloads name only builtins the catalog holds")
                    .1
            }
            Prog::Shape(i) => &self.shapes[i],
        }
    }

    /// Add a generated shape if its canonical form is new and its model
    /// builds, predicts and lints; returns its index.
    pub fn admit_shape(&mut self, shape: Shape) -> Option<usize> {
        let name = format!("shape{}", self.shapes.len());
        let entry = Entry::admit(layers::shape_program(&name, &shape))?;
        if !self.hashes.insert(entry.hash) {
            return None;
        }
        self.shapes.push(entry);
        Some(self.shapes.len() - 1)
    }

    pub fn free_symbols(&self, prog: Prog) -> Vec<String> {
        self.entry(prog).free.clone()
    }

    pub fn shape_json(&self, i: usize) -> &str {
        &self.shapes[i].json
    }

    pub fn shape_hash(&self, prog: Prog) -> u64 {
        self.entry(prog).hash
    }

    pub fn program(&self, prog: Prog) -> &Program {
        &self.entry(prog).program
    }

    pub fn misses(&self, q: &Query) -> Result<u64, String> {
        let model = &self.entry(q.prog).model;
        layers::quietly(|| layers::predict(model, &q.bindings, q.cache))
            .unwrap_or_else(|| Err("model evaluation panicked".into()))
    }

    /// The answer to `spec`, or why it has none.
    pub fn expect(&mut self, spec: &Spec) -> Result<Expect, String> {
        Ok(match spec {
            Spec::Predict(q) => Expect::Misses(self.misses(q)?),
            Spec::Analyze(p) => {
                let e = self.entry(*p);
                Expect::Analyze {
                    shape: e.hash,
                    components: e.components,
                }
            }
            Spec::Stats => Expect::Stats,
            Spec::Lint(p) => Expect::Lint(self.entry(*p).lint),
            Spec::Revise(q) => Expect::Revise {
                cache: q.cache,
                misses: self.misses(q)?,
            },
            Spec::Batch(qs) => Expect::Batch(
                qs.iter()
                    .map(|q| self.misses(q))
                    .collect::<Result<_, _>>()?,
            ),
            Spec::Advise { query, search, max } => {
                let key = format!("{query:?}{search:?}{max}");
                if let Some(e) = self.searches.get(&key) {
                    return Ok(e.clone());
                }
                let e = self.search(query, *search, *max)?;
                self.searches.insert(key, e.clone());
                e
            }
        })
    }

    fn search(&self, q: &Query, search: Search, max: u64) -> Result<Expect, String> {
        let entry = self.entry(q.prog);
        let (tile_syms, bound_syms): (Vec<String>, Vec<String>) =
            entry.free.iter().cloned().partition(|s| s.starts_with('T'));
        let space = layers::Space {
            syms: &tile_syms,
            max,
            min: TILE_MIN,
        };
        let found = layers::quietly(|| match search {
            Search::BoundsFree => {
                layers::search_bounds_free(&entry.model, &bound_syms, NOMINAL, q.cache, &space)
            }
            Search::Pruned | Search::Exhaustive => layers::search(
                &entry.model,
                &q.bindings,
                q.cache,
                &space,
                search == Search::Exhaustive,
            ),
        })
        .ok_or("tile search panicked")?;
        Ok(Expect::Advise {
            tiles: tile_syms.into_iter().zip(found.tiles).collect(),
            misses: found.misses,
        })
    }
}

fn u64_at(v: &Value, path: &[&str]) -> Option<u64> {
    v.path(path).and_then(Value::as_u64)
}

impl Expect {
    /// Check one reply document. An error reply, `overloaded` included,
    /// fails like a wrong answer.
    pub fn check(&self, reply: &Value) -> Result<(), String> {
        if reply.get("ok").and_then(Value::as_bool) != Some(true) {
            let kind = reply
                .path(&["error", "kind"])
                .and_then(Value::as_str)
                .unwrap_or("?");
            return Err(format!("error reply `{kind}`"));
        }
        let agree = match self {
            Expect::Misses(m) => u64_at(reply, &["misses"]) == Some(*m),
            Expect::Analyze { shape, components } => {
                reply.get("shape").and_then(Value::as_str) == Some(format!("{shape:016x}").as_str())
                    && reply
                        .get("components")
                        .and_then(Value::as_array)
                        .map(<[Value]>::len)
                        == Some(*components)
            }
            Expect::Stats => reply.get("stats").and_then(Value::as_object).is_some(),
            Expect::Lint([e, w, i]) => {
                u64_at(reply, &["summary", "error"]) == Some(*e)
                    && u64_at(reply, &["summary", "warning"]) == Some(*w)
                    && u64_at(reply, &["summary", "info"]) == Some(*i)
            }
            Expect::Advise { tiles, misses } => {
                reply.get("completed").and_then(Value::as_bool) == Some(true)
                    && u64_at(reply, &["outcome", "best", "misses"]) == Some(*misses)
                    && tiles
                        .iter()
                        .all(|(s, t)| u64_at(reply, &["outcome", "best", "tiles", s]) == Some(*t))
            }
            Expect::Revise { cache, misses } => {
                u64_at(reply, &["misses", &cache.to_string()]) == Some(*misses)
            }
            Expect::Batch(ms) => reply
                .get("responses")
                .and_then(Value::as_array)
                .is_some_and(|rs| {
                    rs.len() == ms.len()
                        && rs.iter().zip(ms).all(|(r, m)| {
                            r.get("ok").and_then(Value::as_bool) == Some(true)
                                && u64_at(r, &["misses"]) == Some(*m)
                        })
                }),
        };
        if agree {
            Ok(())
        } else {
            Err(format!("answer differs from the oracle's {self:?}"))
        }
    }
}
