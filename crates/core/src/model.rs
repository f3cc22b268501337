//! The cache-miss model: evaluate symbolic components against concrete
//! bounds, tile sizes and a cache capacity.

use crate::partition::{all_components, Component, ComponentKind, StackDistance};
use sdlo_ir::{ArrayId, Bindings, Program};
use sdlo_symbolic::Sym;
use std::collections::{BTreeMap, BTreeSet};

/// Error from miss prediction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// A symbolic expression failed to evaluate (unbound symbol, overflow).
    Eval(sdlo_symbolic::EvalError),
    /// A component count evaluated negative (malformed bindings, e.g. a
    /// bound smaller than a tile size in a non-divisible configuration).
    NegativeCount(i64),
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::Eval(e) => write!(f, "evaluation failed: {e}"),
            ModelError::NegativeCount(c) => write!(f, "component count {c} is negative"),
        }
    }
}

impl std::error::Error for ModelError {}

impl From<sdlo_symbolic::EvalError> for ModelError {
    fn from(e: sdlo_symbolic::EvalError) -> Self {
        ModelError::Eval(e)
    }
}

/// Predicted misses of one component under concrete bindings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComponentPrediction {
    /// Instances in the component.
    pub count: u64,
    /// Instances predicted to miss.
    pub misses: u64,
}

/// A component's stack distance with its endpoint expressions already
/// evaluated — the input layer of the §5 miss formula once all symbolic
/// work is done.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistanceValues {
    /// No incoming dependence — always a miss.
    Infinite,
    /// The same distance for every instance.
    Constant(i64),
    /// Distance varies linearly between two (unordered) endpoints.
    Varying { lo: i64, hi: i64 },
}

/// The §5 miss formula on already-evaluated inputs. [`MissModel::predict_component`]
/// and the compiled tape ([`crate::Tape`], which the tile search and the
/// `revise` sessions run) both funnel through this one function, so the two
/// evaluators agree bit-for-bit by construction.
pub fn predict_from_values(
    count_i: i64,
    distance: DistanceValues,
    cache_size: u64,
) -> Result<ComponentPrediction, ModelError> {
    if count_i < 0 {
        return Err(ModelError::NegativeCount(count_i));
    }
    let count = count_i as u64;
    let misses = match distance {
        DistanceValues::Infinite => count,
        DistanceValues::Constant(d) => {
            if d as u64 >= cache_size {
                count
            } else {
                0
            }
        }
        DistanceValues::Varying { lo, hi } => {
            let (lo_v, hi_v) = (lo.min(hi), lo.max(hi));
            let cs = cache_size as i64;
            if lo_v >= cs {
                count
            } else if hi_v < cs {
                0
            } else {
                // Linear interpolation across the component — the
                // paper's partial-miss formula (§5).
                let span = (hi_v - lo_v) as u128 + 1;
                let missing = (hi_v - cs) as u128 + 1;
                ((count as u128 * missing) / span) as u64
            }
        }
    };
    Ok(ComponentPrediction { count, misses })
}

/// Compile-time cache-miss model of a program: the full set of reuse
/// components with symbolic counts and stack distances.
///
/// ```
/// use sdlo_core::MissModel;
/// use sdlo_ir::{programs, Bindings};
///
/// let program = programs::tiled_matmul();
/// let model = MissModel::build(&program);
/// let b = Bindings::new()
///     .with("Ni", 512).with("Nj", 512).with("Nk", 512)
///     .with("Ti", 64).with("Tj", 64).with("Tk", 64);
/// // 64 KiB of f64 elements, the paper's Table 3 configuration:
/// let misses = model.predict_misses(&b, 8192).unwrap();
/// assert_eq!(misses, 6_291_456); // paper's predicted value
/// ```
#[derive(Debug, Clone)]
pub struct MissModel {
    components: Vec<Component>,
}

impl MissModel {
    /// Analyze `program` (paper §5: partition every reference's iteration
    /// space and attach symbolic stack distances).
    pub fn build(program: &Program) -> Self {
        let span = sdlo_trace::span("model.build");
        span.attr("program", program.name.as_str());
        let model = MissModel {
            components: all_components(program),
        };
        span.add("components", model.components.len() as u64);
        model
    }

    /// The underlying components.
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// Every symbol a component's count or stack distance reads.
    pub fn symbols(&self) -> BTreeSet<Sym> {
        let mut read = BTreeSet::new();
        for c in &self.components {
            c.count.collect_vars(&mut read);
            match &c.distance {
                StackDistance::Infinite => {}
                StackDistance::Constant(e) => e.collect_vars(&mut read),
                StackDistance::Varying { lo, hi } => {
                    lo.collect_vars(&mut read);
                    hi.collect_vars(&mut read);
                }
            }
        }
        read
    }

    /// Build a model from an explicit component list (used for filtered
    /// models, e.g. the bounds-free tile search of §6).
    pub fn from_components(components: Vec<Component>) -> Self {
        MissModel { components }
    }

    /// Retain only components satisfying `keep` (e.g. those whose stack
    /// distance does not mention any loop-bound symbol).
    pub fn filtered(&self, keep: impl Fn(&Component) -> bool) -> Self {
        MissModel {
            components: self
                .components
                .iter()
                .filter(|c| keep(c))
                .cloned()
                .collect(),
        }
    }

    /// Predict the misses of one component for a fully associative LRU cache
    /// of `cache_size` blocks.
    pub fn predict_component(
        component: &Component,
        bindings: &Bindings,
        cache_size: u64,
    ) -> Result<ComponentPrediction, ModelError> {
        let count_i = component.count.eval(bindings)?;
        let distance = match &component.distance {
            StackDistance::Infinite => DistanceValues::Infinite,
            StackDistance::Constant(e) => DistanceValues::Constant(e.eval(bindings)?),
            StackDistance::Varying { lo, hi } => DistanceValues::Varying {
                lo: lo.eval(bindings)?,
                hi: hi.eval(bindings)?,
            },
        };
        predict_from_values(count_i, distance, cache_size)
    }

    /// Total predicted misses for a fully associative LRU cache of
    /// `cache_size` blocks (elements).
    pub fn predict_misses(&self, bindings: &Bindings, cache_size: u64) -> Result<u64, ModelError> {
        let mut total = 0u64;
        for c in &self.components {
            let misses = Self::predict_component(c, bindings, cache_size)?.misses;
            total = total
                .checked_add(misses)
                .ok_or(ModelError::Eval(sdlo_symbolic::EvalError::Overflow))?;
        }
        Ok(total)
    }

    /// Predicted misses per `(statement, reference index)` — comparable to
    /// [`crate::oracle::per_reference_misses`].
    pub fn predict_per_reference(
        &self,
        bindings: &Bindings,
        cache_size: u64,
    ) -> Result<BTreeMap<(sdlo_ir::StmtId, usize), u64>, ModelError> {
        let mut out = BTreeMap::new();
        for c in &self.components {
            let p = Self::predict_component(c, bindings, cache_size)?;
            *out.entry((c.stmt, c.ref_idx)).or_insert(0) += p.misses;
        }
        Ok(out)
    }

    /// Predicted misses per array.
    pub fn predict_by_array(
        &self,
        bindings: &Bindings,
        cache_size: u64,
    ) -> Result<BTreeMap<ArrayId, u64>, ModelError> {
        let mut out = BTreeMap::new();
        for c in &self.components {
            let p = Self::predict_component(c, bindings, cache_size)?;
            *out.entry(c.array).or_insert(0) += p.misses;
        }
        Ok(out)
    }

    /// Total reference instances covered by the model (must equal the
    /// trace length — checked in tests).
    pub fn total_instances(&self, bindings: &Bindings) -> Result<u64, ModelError> {
        let mut total = 0u64;
        for c in &self.components {
            let v = c.count.eval(bindings)?;
            if v < 0 {
                return Err(ModelError::NegativeCount(v));
            }
            total += v as u64;
        }
        Ok(total)
    }

    /// The distinct stack-distance expressions of the model, evaluated;
    /// used by the tile-size search to find capacities where the miss count
    /// jumps.
    pub fn distance_values(&self, bindings: &Bindings) -> Result<Vec<u64>, ModelError> {
        let mut out = Vec::new();
        for c in &self.components {
            match &c.distance {
                StackDistance::Infinite => {}
                StackDistance::Constant(e) => out.push(e.eval(bindings)?.max(0) as u64),
                StackDistance::Varying { lo, hi } => {
                    out.push(lo.eval(bindings)?.max(0) as u64);
                    out.push(hi.eval(bindings)?.max(0) as u64);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        Ok(out)
    }

    /// Render the model as a table (paper Table 1 style).
    pub fn render(&self, program: &Program) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<6} {:<5} {:<22} {:<34} stack distance",
            "array", "stmt", "kind", "#instances"
        );
        for c in &self.components {
            let name = program.array(c.array).name.clone();
            let kind = match &c.kind {
                ComponentKind::Compulsory => "compulsory".to_string(),
                ComponentKind::Carried {
                    loop_index,
                    source_stmt,
                } => {
                    format!("carried by {loop_index} (S{})", source_stmt.0)
                }
                ComponentKind::CrossStmt { source_stmt } => {
                    format!("from S{}", source_stmt.0)
                }
            };
            let _ = writeln!(
                out,
                "{:<6} S{:<4} {:<22} {:<34} {}",
                name.name(),
                c.stmt.0,
                kind,
                c.count.to_string(),
                c.distance
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdlo_ir::programs;

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
    fn reproduces_paper_table3_predictions() {
        // (N, tiles, cache elements, paper predicted). Row 4 of the paper's
        // table uses tiles (64,32,32) in loop order — the printed (32,64,32)
        // is inconsistent with the table's own convention (see
        // EXPERIMENTS.md).
        let model = MissModel::build(&programs::tiled_matmul());
        let cases = [
            (512, (32, 32, 32), 8192, 8_650_752u64),
            (512, (64, 64, 64), 8192, 6_291_456),
            (512, (128, 128, 128), 8192, 136_314_880),
            (256, (64, 32, 32), 2048, 1_310_720),
            (256, (64, 64, 64), 2048, 17_301_504),
            (256, (32, 64, 128), 2048, 17_170_432),
        ];
        for (n, t, cs, expected) in cases {
            let misses = model.predict_misses(&tmm(n, t), cs).unwrap();
            assert_eq!(misses, expected, "N={n} tiles={t:?} CS={cs}");
        }
    }

    #[test]
    fn total_instances_match_trace_length() {
        let p = programs::tiled_matmul();
        let model = MissModel::build(&p);
        let b = tmm(64, (16, 8, 32));
        let compiled = sdlo_ir::CompiledProgram::compile(&p, &b).unwrap();
        assert_eq!(
            model.total_instances(&b).unwrap(),
            compiled.total_accesses()
        );
    }

    #[test]
    fn two_index_instances_match_trace_length() {
        let p = programs::tiled_two_index();
        let model = MissModel::build(&p);
        let b = Bindings::new()
            .with("Ni", 32)
            .with("Nj", 32)
            .with("Nm", 32)
            .with("Nn", 32)
            .with("Ti", 8)
            .with("Tj", 4)
            .with("Tm", 16)
            .with("Tn", 8);
        let compiled = sdlo_ir::CompiledProgram::compile(&p, &b).unwrap();
        assert_eq!(
            model.total_instances(&b).unwrap(),
            compiled.total_accesses()
        );
    }

    #[test]
    fn huge_cache_leaves_only_compulsory() {
        let p = programs::tiled_matmul();
        let model = MissModel::build(&p);
        let b = tmm(256, (64, 64, 64));
        // Compulsory misses = one per distinct element = 3·N².
        assert_eq!(
            model.predict_misses(&b, u64::MAX / 2).unwrap(),
            3 * 256 * 256
        );
    }

    #[test]
    fn misses_monotone_in_cache_size() {
        let p = programs::tiled_two_index();
        let model = MissModel::build(&p);
        let b = Bindings::new()
            .with("Ni", 64)
            .with("Nj", 64)
            .with("Nm", 64)
            .with("Nn", 64)
            .with("Ti", 16)
            .with("Tj", 8)
            .with("Tm", 8)
            .with("Tn", 16);
        let mut prev = u64::MAX;
        for cs in [16u64, 64, 256, 1024, 4096, 16384, 65536] {
            let m = model.predict_misses(&b, cs).unwrap();
            assert!(m <= prev, "cs={cs}: {m} > {prev}");
            prev = m;
        }
    }

    #[test]
    fn render_mentions_every_array() {
        let p = programs::tiled_two_index();
        let model = MissModel::build(&p);
        let text = model.render(&p);
        for name in ["A", "B", "C1", "C2", "T"] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
    }

    #[test]
    fn missing_binding_is_an_error() {
        let model = MissModel::build(&programs::tiled_matmul());
        assert!(matches!(
            model.predict_misses(&Bindings::new(), 1024),
            Err(ModelError::Eval(_))
        ));
    }
}
