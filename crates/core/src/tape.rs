//! A [`MissModel`] lowered to a flat, hash-consed tape.
//!
//! The tree walk ([`MissModel::predict_misses`],
//! [`MissModel::distance_values`]) looks every symbol up in a string-keyed
//! [`Bindings`] map and re-evaluates a sub-expression each time it appears.
//! [`Tape::compile`] does that work once per model, so a tape is a function
//! of its model alone:
//!
//! - every symbol the model reads ([`MissModel::symbols`]) becomes an input,
//!   a numbered slot in sorted symbol order; [`Tape::bind`] reads a
//!   point's input values out of a [`Bindings`] and fails with
//!   [`EvalError::Unbound`] for the first input it leaves unbound, before
//!   any op runs;
//! - each distinct sub-expression becomes one op over earlier results, and
//!   an op whose operands are all literal constants is folded at compile
//!   time;
//! - evaluation is one forward pass that stores each op's result, in op
//!   order, in one vector of values.
//!
//! The arithmetic is the tree walk's, op for op: the same checked sums and
//! products in the same order, the same ceiling and floor division, and
//! the same `i64` range check where a component reads an expression. Ops
//! are emitted in the order the tree walk first reaches them, so values
//! agree and the first failing op is the one the tree walk fails on, with
//! the same [`ModelError`]. Folding only removes ops that succeed; an op
//! that fails on constants stays on the tape and fails in its place.
//!
//! A run is in checked `i64` first: additions and products that overflow,
//! divisions by zero or of `i64::MIN` by -1, and a negative count all fail
//! it, as does an input or constant outside `i64`. A checked `i64` op that
//! succeeds is exact, so a run that does not fail equals the tree walk's
//! `i128` arithmetic value for value. Any failure reruns the program in
//! `i128`, the tree walk's own word, which gives the value (an
//! intermediate beyond `i64` that a later division brings back into range)
//! or the tree walk's first error. No run of the service's benchmark
//! workloads falls back, and a run in `i64` costs about a quarter of one in
//! `i128`.
//!
//! A tape holds two programs. The *misses* program follows
//! [`MissModel::predict_misses`]: per component, the count, then the
//! distances, then the count's sign check. One run of it prices any number
//! of cache sizes ([`Tape::misses_at`]), each as the tree walk does: the
//! components' misses summed in order with a checked add, so a total that
//! overflows before the component that reaches a failing op fails with the
//! overflow, as in the tree walk. The *distances* program follows
//! [`MissModel::distance_values`] and never evaluates a count.
//!
//! The service compiles one tape per cached model and shares it, behind an
//! `Arc`, between the model's tile searches and its `revise` session.
//!
//! ```
//! use sdlo_core::{MissModel, Tape};
//! use sdlo_ir::{programs, Bindings};
//!
//! let model = MissModel::build(&programs::tiled_matmul());
//! let tape = Tape::compile(&model);
//! let b = Bindings::new()
//!     .with("Ni", 512).with("Nj", 512).with("Nk", 512)
//!     .with("Ti", 64).with("Tj", 64).with("Tk", 64);
//! let inputs = tape.bind(&b).unwrap();
//! let mut eval = tape.evaluator();
//! // 64 KiB of f64 elements, the paper's Table 3 configuration:
//! assert_eq!(eval.misses(&inputs, 8192).unwrap(), 6_291_456);
//! ```

use crate::model::{predict_from_values, DistanceValues, MissModel, ModelError};
use crate::partition::StackDistance;
use sdlo_symbolic::{Atom, Bindings, EvalError, Expr, Sym, Term};
use std::collections::HashMap;

/// One tape instruction over operands `V`: [`Ref`]s while building, flat
/// value indices once compiled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Op<V> {
    Add(V, V),
    Mul(V, V),
    CeilDiv(V, V),
    FloorDiv(V, V),
    Min(V, V),
    Max(V, V),
    /// [`Expr::eval`]'s conversion of a component's expression to `i64`.
    Narrow(V),
    /// A component count must not be negative.
    NonNegative(V),
}

impl<V: Copy> Op<V> {
    fn map<W>(self, mut f: impl FnMut(V) -> W) -> Op<W> {
        match self {
            Op::Add(a, b) => Op::Add(f(a), f(b)),
            Op::Mul(a, b) => Op::Mul(f(a), f(b)),
            Op::CeilDiv(a, b) => Op::CeilDiv(f(a), f(b)),
            Op::FloorDiv(a, b) => Op::FloorDiv(f(a), f(b)),
            Op::Min(a, b) => Op::Min(f(a), f(b)),
            Op::Max(a, b) => Op::Max(f(a), f(b)),
            Op::Narrow(a) => Op::Narrow(f(a)),
            Op::NonNegative(a) => Op::NonNegative(f(a)),
        }
    }
}

fn overflow() -> ModelError {
    ModelError::Eval(EvalError::Overflow)
}

/// The word a program runs in: `i64`, or `i128` where an `i64` run fails.
/// Each operation is checked and `None` where it fails.
trait Word: Copy + Ord + Default {
    fn add(self, b: Self) -> Option<Self>;
    fn mul(self, b: Self) -> Option<Self>;
    fn ceil_div(self, d: Self) -> Option<Self>;
    fn floor_div(self, d: Self) -> Option<Self>;
    /// [`Expr::eval`]'s conversion of a component's expression to `i64`.
    fn narrow(self) -> Option<Self>;
}

impl Word for i64 {
    fn add(self, b: i64) -> Option<i64> {
        self.checked_add(b)
    }

    fn mul(self, b: i64) -> Option<i64> {
        self.checked_mul(b)
    }

    /// `checked_div` fails on 0 and on `i64::MIN / -1`; past it, the
    /// remainder and a one-step correction cannot overflow.
    fn ceil_div(self, d: i64) -> Option<i64> {
        let q = self.checked_div(d)?;
        let r = self % d;
        Some(if r != 0 && (r > 0) == (d > 0) {
            q + 1
        } else {
            q
        })
    }

    fn floor_div(self, d: i64) -> Option<i64> {
        let q = self.checked_div(d)?;
        let r = self % d;
        Some(if r != 0 && (r > 0) != (d > 0) {
            q - 1
        } else {
            q
        })
    }

    fn narrow(self) -> Option<i64> {
        Some(self)
    }
}

impl Word for i128 {
    fn add(self, b: i128) -> Option<i128> {
        self.checked_add(b)
    }

    fn mul(self, b: i128) -> Option<i128> {
        self.checked_mul(b)
    }

    fn ceil_div(self, d: i128) -> Option<i128> {
        sdlo_symbolic::div_ceil(self, d)
    }

    fn floor_div(self, d: i128) -> Option<i128> {
        sdlo_symbolic::div_floor(self, d)
    }

    fn narrow(self) -> Option<i128> {
        i64::try_from(self).ok().map(i128::from)
    }
}

/// One op on the values `x` gives its operands — the tree walk's
/// arithmetic, exactly — or `None` where it fails. In `i128`, [`fault`]
/// says how the tree walk fails there.
#[inline(always)]
fn exec<W: Word, V: Copy>(op: Op<V>, x: impl Fn(V) -> W) -> Option<W> {
    match op {
        Op::Add(a, b) => x(a).add(x(b)),
        Op::Mul(a, b) => x(a).mul(x(b)),
        Op::CeilDiv(n, d) => x(n).ceil_div(x(d)),
        Op::FloorDiv(n, d) => x(n).floor_div(x(d)),
        Op::Min(a, b) => Some(x(a).min(x(b))),
        Op::Max(a, b) => Some(x(a).max(x(b))),
        Op::Narrow(a) => x(a).narrow(),
        Op::NonNegative(a) => Some(x(a)).filter(|v| *v >= W::default()),
    }
}

/// The error of an op [`exec`] failed on in `i128`.
#[cold]
fn fault(op: Op<i128>) -> ModelError {
    match op {
        Op::CeilDiv(_, 0) | Op::FloorDiv(_, 0) => ModelError::Eval(EvalError::DivisionByZero),
        Op::NonNegative(a) => ModelError::NegativeCount(a as i64),
        _ => overflow(),
    }
}

/// A value while building: an input slot, a pooled constant, or an earlier
/// op's result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Ref {
    Input(u32),
    Const(u32),
    Op(u32),
}

/// One straight-line program. Its values are laid out as the inputs, then
/// `consts`, then one result per op.
#[derive(Debug, Clone, Default)]
struct Program {
    consts: Vec<i128>,
    /// `consts` in `i64`, or `None` when one does not fit, so that every
    /// run is in `i128`.
    narrow_consts: Option<Vec<i64>>,
    ops: Vec<Op<u32>>,
}

/// Value buffers for runs in either word, reused across runs.
#[derive(Debug, Default)]
struct Scratch {
    narrow: Vec<i64>,
    wide: Vec<i128>,
}

/// The values of a finished run, in the word it finished in.
enum Values<'a> {
    Narrow(&'a [i64]),
    Wide(&'a [i128]),
}

impl Values<'_> {
    /// Value `i`, which a [`Op::Narrow`] or [`Op::NonNegative`] op left in
    /// `i64` range.
    fn at(&self, i: u32) -> i64 {
        match self {
            Values::Narrow(v) => v[i as usize],
            Values::Wide(v) => v[i as usize] as i64,
        }
    }
}

impl Program {
    /// Run every op at `inputs` in `i64`, and again in `i128` where an
    /// input or a constant does not fit `i64` or an op fails there. The
    /// values are the last run's; where an op fails in `i128`, the fault
    /// is its index and the tree walk's error there, and the values before
    /// it are set.
    fn run<'s>(
        &self,
        inputs: &[i128],
        scratch: &'s mut Scratch,
    ) -> (Values<'s>, Option<(usize, ModelError)>) {
        if let Some(consts) = &self.narrow_consts {
            if inputs.iter().all(|v| i64::try_from(*v).is_ok()) {
                let narrow = inputs.iter().map(|v| *v as i64);
                if self.run_in(narrow, consts, &mut scratch.narrow).is_ok() {
                    return (Values::Narrow(&scratch.narrow), None);
                }
            }
        }
        let values = &mut scratch.wide;
        let fault = self
            .run_in(inputs.iter().copied(), &self.consts, values)
            .err()
            .map(|k| {
                let op = self.ops[k].map(|i| values[i as usize]);
                (k, fault(op))
            });
        (Values::Wide(values), fault)
    }

    /// Run every op in word `W` into `values`, stopping at the index of
    /// the first op that fails.
    fn run_in<W: Word>(
        &self,
        inputs: impl ExactSizeIterator<Item = W>,
        consts: &[W],
        values: &mut Vec<W>,
    ) -> Result<(), usize> {
        let (n, first) = (inputs.len(), inputs.len() + consts.len());
        values.resize(first + self.ops.len(), W::default());
        let values = values.as_mut_slice();
        for (slot, v) in values.iter_mut().zip(inputs) {
            *slot = v;
        }
        values[n..first].copy_from_slice(consts);
        for (k, op) in self.ops.iter().enumerate() {
            values[first + k] = exec(*op, |i| values[i as usize]).ok_or(k)?;
        }
        Ok(())
    }
}

/// A two-operand op constructor (`Op::Add`, `Op::Min`, ...).
type Combine = fn(Ref, Ref) -> Op<Ref>;

/// Builds one [`Program`], hash-consing and folding as it goes.
struct Builder<'a> {
    /// Every symbol the model reads, sorted.
    inputs: &'a [Sym],
    consts: Vec<i128>,
    const_ids: HashMap<i128, u32>,
    ops: Vec<Op<Ref>>,
    op_ids: HashMap<Op<Ref>, Ref>,
}

impl<'a> Builder<'a> {
    fn new(inputs: &'a [Sym]) -> Self {
        Builder {
            inputs,
            consts: Vec::new(),
            const_ids: HashMap::new(),
            ops: Vec::new(),
            op_ids: HashMap::new(),
        }
    }

    fn constant(&mut self, v: i128) -> Ref {
        let next = self.consts.len() as u32;
        let id = *self.const_ids.entry(v).or_insert(next);
        if id == next {
            self.consts.push(v);
        }
        Ref::Const(id)
    }

    fn var(&self, s: &Sym) -> Ref {
        let slot = self
            .inputs
            .binary_search(s)
            .expect("every symbol the model reads is an input");
        Ref::Input(slot as u32)
    }

    /// Emit `op`, or reuse an identical earlier op, or fold it to a
    /// constant when its operands are constants and it succeeds.
    fn op(&mut self, op: Op<Ref>) -> Ref {
        let mut all_const = true;
        op.map(|r| all_const &= matches!(r, Ref::Const(_)));
        if all_const {
            let consts = &self.consts;
            let value = |r: Ref| match r {
                Ref::Const(i) => consts[i as usize],
                _ => unreachable!("every operand is a constant"),
            };
            if let Some(v) = exec(op, value) {
                return self.constant(v);
            }
        }
        if let Some(&r) = self.op_ids.get(&op) {
            return r;
        }
        let r = Ref::Op(self.ops.len() as u32);
        self.ops.push(op);
        self.op_ids.insert(op, r);
        r
    }

    /// `acc op v`, where an empty accumulator is just `v`.
    fn fold(&mut self, acc: Option<Ref>, v: Ref, op: Combine) -> Option<Ref> {
        Some(match acc {
            None => v,
            Some(a) => self.op(op(a, v)),
        })
    }

    /// `Expr::eval_i128`: the terms summed left to right (`0 + t` is `t`).
    fn expr(&mut self, e: &Expr) -> Ref {
        let mut acc = None;
        for t in e.terms() {
            let v = self.term(t);
            acc = self.fold(acc, v, Op::Add);
        }
        acc.unwrap_or_else(|| self.constant(0))
    }

    /// `Term::eval`: the coefficient times each factor, `exponent` times,
    /// in factor order (`1 * v` is `v`).
    fn term(&mut self, t: &Term) -> Ref {
        let mut acc = (t.coeff != 1).then(|| self.constant(t.coeff.into()));
        for (atom, exponent) in &t.factors {
            let v = self.atom(atom);
            for _ in 0..*exponent {
                acc = self.fold(acc, v, Op::Mul);
            }
        }
        acc.unwrap_or_else(|| self.constant(1))
    }

    /// `Atom::eval`; a `min`/`max` of no operands is `i128::MAX`/`MIN`.
    fn atom(&mut self, a: &Atom) -> Ref {
        let (es, op, empty): (&[Expr], Combine, i128) = match a {
            Atom::Var(s) => return self.var(s),
            Atom::CeilDiv(n, d) => {
                let (n, d) = (self.expr(n), self.expr(d));
                return self.op(Op::CeilDiv(n, d));
            }
            Atom::FloorDiv(n, d) => {
                let (n, d) = (self.expr(n), self.expr(d));
                return self.op(Op::FloorDiv(n, d));
            }
            Atom::Min(es) => (es, Op::Min, i128::MAX),
            Atom::Max(es) => (es, Op::Max, i128::MIN),
        };
        let mut acc = None;
        for e in es {
            let v = self.expr(e);
            acc = self.fold(acc, v, op);
        }
        acc.unwrap_or_else(|| self.constant(empty))
    }

    /// A component's expression as `Expr::eval` reads it.
    fn root(&mut self, e: &Expr) -> Ref {
        let v = self.expr(e);
        self.op(Op::Narrow(v))
    }

    /// The finished program and the map from build-time references to
    /// value indices.
    fn finish(self) -> (Program, impl Fn(Ref) -> u32) {
        let inputs = self.inputs.len() as u32;
        let consts = self.consts.len() as u32;
        let index = move |r: Ref| match r {
            Ref::Input(i) => i,
            Ref::Const(i) => inputs + i,
            Ref::Op(i) => inputs + consts + i,
        };
        let program = Program {
            ops: self.ops.iter().map(|op| op.map(index)).collect(),
            narrow_consts: self.consts.iter().map(|c| i64::try_from(*c).ok()).collect(),
            consts: self.consts,
        };
        (program, index)
    }
}

/// A component's stack distance as values: [`Ref`]s while building, value
/// indices once compiled.
#[derive(Debug, Clone, Copy)]
enum DistanceRoots<V> {
    Infinite,
    Constant(V),
    Varying(V, V),
}

impl<V> DistanceRoots<V> {
    fn map<W>(self, f: impl Fn(V) -> W) -> DistanceRoots<W> {
        match self {
            DistanceRoots::Infinite => DistanceRoots::Infinite,
            DistanceRoots::Constant(d) => DistanceRoots::Constant(f(d)),
            DistanceRoots::Varying(lo, hi) => DistanceRoots::Varying(f(lo), f(hi)),
        }
    }
}

/// One component's values in the misses program.
#[derive(Debug, Clone, Copy)]
struct Root {
    count: u32,
    distance: DistanceRoots<u32>,
    /// Every op this component or an earlier one reads lies below this
    /// index.
    ops_end: u32,
}

/// A [`MissModel`] compiled with every symbol it reads as an input; see
/// the [module docs](self).
#[derive(Debug, Clone)]
pub struct Tape {
    /// Every symbol the model reads, sorted.
    inputs: Vec<Sym>,
    misses: Program,
    /// Per component, in model order.
    components: Vec<Root>,
    distances: Program,
    /// Every distance endpoint's value in `distances`, in component order.
    distance_roots: Vec<u32>,
}

impl Tape {
    /// Compile `model` with every symbol it reads as an input, in sorted
    /// order.
    pub fn compile(model: &MissModel) -> Tape {
        let span = sdlo_trace::span("tape.compile");
        let inputs: Vec<Sym> = model.symbols().into_iter().collect();
        let mut b = Builder::new(&inputs);
        let mut components = Vec::with_capacity(model.components().len());
        for c in model.components() {
            let count = b.root(&c.count);
            let distance = match &c.distance {
                StackDistance::Infinite => DistanceRoots::Infinite,
                StackDistance::Constant(e) => DistanceRoots::Constant(b.root(e)),
                StackDistance::Varying { lo, hi } => {
                    let lo = b.root(lo);
                    DistanceRoots::Varying(lo, b.root(hi))
                }
            };
            let count = b.op(Op::NonNegative(count));
            components.push((count, distance, b.ops.len() as u32));
        }
        let (misses, index) = b.finish();
        let components = components
            .into_iter()
            .map(|(count, d, ops_end)| Root {
                count: index(count),
                distance: d.map(&index),
                ops_end,
            })
            .collect();

        let mut b = Builder::new(&inputs);
        let mut roots = Vec::new();
        for c in model.components() {
            match &c.distance {
                StackDistance::Infinite => {}
                StackDistance::Constant(e) => roots.push(b.root(e)),
                StackDistance::Varying { lo, hi } => {
                    roots.push(b.root(lo));
                    roots.push(b.root(hi));
                }
            }
        }
        let (distances, index) = b.finish();
        let distance_roots = roots.into_iter().map(index).collect();
        span.add("ops", misses.ops.len() as u64);
        span.add("distance_ops", distances.ops.len() as u64);

        Tape {
            inputs,
            misses,
            components,
            distances,
            distance_roots,
        }
    }

    /// An evaluator with its own scratch space; reuse it across points.
    pub fn evaluator(&self) -> TapeEval<'_> {
        TapeEval {
            tape: self,
            scratch: Scratch::default(),
            distances: Vec::new(),
        }
    }

    /// The input symbols: every symbol the model reads, sorted.
    pub fn inputs(&self) -> &[Sym] {
        &self.inputs
    }

    /// Each input's value in `bindings`, in input order. Fails with
    /// [`EvalError::Unbound`] for the first input `bindings` leaves
    /// unbound; a binding for a symbol the model never reads is ignored.
    pub fn bind(&self, bindings: &Bindings) -> Result<Vec<i128>, ModelError> {
        self.inputs
            .iter()
            .map(|s| {
                bindings
                    .get(s)
                    .ok_or_else(|| ModelError::Eval(EvalError::Unbound(s.clone())))
            })
            .collect()
    }

    /// Ops in the misses program: what one run of it executes.
    pub fn op_count(&self) -> usize {
        self.misses.ops.len()
    }

    /// [`TapeEval::misses`] at each of `cache_sizes`, in that order, from
    /// one run of the misses program. Fails with the tree walk's error at
    /// the first size where the tree walk fails.
    ///
    /// # Panics
    ///
    /// If `inputs` does not hold one value per input symbol.
    pub fn misses_at(&self, inputs: &[i128], cache_sizes: &[u64]) -> Result<Vec<u64>, ModelError> {
        let mut totals = vec![0; cache_sizes.len()];
        self.price(inputs, cache_sizes, &mut Scratch::default(), &mut totals)?;
        Ok(totals)
    }

    /// Run the misses program at `inputs`, then set `totals[k]` to the
    /// total at `cache_sizes[k]`, priced as the tree walk prices one size:
    /// component by component, summed with a checked add. Where an op
    /// fails, the tree walk fails at every size after pricing the
    /// components before the one that reaches the op: with their total's
    /// overflow if it overflows, else with the op's error.
    fn price(
        &self,
        inputs: &[i128],
        cache_sizes: &[u64],
        scratch: &mut Scratch,
        totals: &mut [u64],
    ) -> Result<(), ModelError> {
        assert_eq!(inputs.len(), self.inputs.len(), "one value per input");
        let (values, fault) = self.misses.run(inputs, scratch);
        let (priced, fault) = match fault {
            None => (&self.components[..], None),
            Some((op, e)) => {
                let ran = self
                    .components
                    .partition_point(|c| c.ops_end as usize <= op);
                (&self.components[..ran], Some(e))
            }
        };
        for (total, &size) in totals.iter_mut().zip(cache_sizes) {
            *total = 0;
            for c in priced {
                let distance = match c.distance {
                    DistanceRoots::Infinite => DistanceValues::Infinite,
                    DistanceRoots::Constant(d) => DistanceValues::Constant(values.at(d)),
                    DistanceRoots::Varying(lo, hi) => DistanceValues::Varying {
                        lo: values.at(lo),
                        hi: values.at(hi),
                    },
                };
                let p = predict_from_values(values.at(c.count), distance, size)?;
                *total = total.checked_add(p.misses).ok_or_else(overflow)?;
            }
            if let Some(e) = fault {
                return Err(e);
            }
        }
        fault.map_or(Ok(()), Err)
    }
}

/// Evaluates one [`Tape`] at input points, reusing its buffers.
#[derive(Debug)]
pub struct TapeEval<'t> {
    tape: &'t Tape,
    scratch: Scratch,
    distances: Vec<u64>,
}

impl TapeEval<'_> {
    /// Total predicted misses for a fully associative LRU cache of
    /// `cache_size` elements — [`MissModel::predict_misses`] at the point
    /// whose input values are `inputs`, in [`Tape::inputs`] order (see
    /// [`Tape::bind`]).
    ///
    /// # Panics
    ///
    /// If `inputs` does not hold one value per input symbol.
    pub fn misses(&mut self, inputs: &[i128], cache_size: u64) -> Result<u64, ModelError> {
        let mut total = [0];
        self.tape
            .price(inputs, &[cache_size], &mut self.scratch, &mut total)?;
        Ok(total[0])
    }

    /// How many distinct stack-distance values (negative ones read as 0)
    /// are at least `cache_size` — the count of [`MissModel::distance_values`]
    /// at or above it. Evaluates no component count.
    ///
    /// # Panics
    ///
    /// If `inputs` does not hold one value per input symbol.
    pub fn distances_above(
        &mut self,
        inputs: &[i128],
        cache_size: u64,
    ) -> Result<usize, ModelError> {
        assert_eq!(inputs.len(), self.tape.inputs.len(), "one value per input");
        let tape = self.tape;
        let (values, fault) = tape.distances.run(inputs, &mut self.scratch);
        if let Some((_, e)) = fault {
            return Err(e);
        }
        self.distances.clear();
        self.distances.extend(
            tape.distance_roots
                .iter()
                .map(|&i| values.at(i).max(0) as u64)
                .filter(|d| *d >= cache_size),
        );
        self.distances.sort_unstable();
        self.distances.dedup();
        Ok(self.distances.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdlo_ir::programs;

    fn syms(names: &[&str]) -> Vec<Sym> {
        names.iter().map(|n| Sym::new(*n)).collect()
    }

    #[test]
    fn shared_subexpressions_become_one_op() {
        let model = MissModel::build(&programs::tiled_two_index());
        let tape = Tape::compile(&model);
        let (misses, distances) = (tape.misses.ops.len(), tape.distances.ops.len());
        assert!(distances < misses, "{distances} vs {misses}");
        let mut seen = std::collections::HashSet::new();
        for op in &tape.misses.ops {
            assert!(seen.insert(*op), "duplicate op {op:?}");
        }
    }

    #[test]
    fn matches_the_tree_walk_including_errors() {
        let model = MissModel::build(&programs::tiled_matmul());
        let tape = Tape::compile(&model);
        let mut eval = tape.evaluator();
        let cases: [(i128, [i128; 3]); 5] = [
            (256, [64, 32, 32]),
            (100, [7, 3, 64]),
            (512, [0, 8, 8]),     // zero tile: division by zero
            (1 << 40, [1, 1, 1]), // overflow
            (64, [-4, 8, 8]),     // negative tile
        ];
        for (n, t) in cases {
            let b = Bindings::new()
                .with("Ni", n)
                .with("Nj", n)
                .with("Nk", n)
                .with("Ti", t[0])
                .with("Tj", t[1])
                .with("Tk", t[2]);
            let inputs = tape.bind(&b).unwrap();
            for cache in [64u64, 2048, 8192] {
                assert_eq!(
                    eval.misses(&inputs, cache),
                    model.predict_misses(&b, cache),
                    "N={n} tiles={t:?} C={cache}"
                );
                let above = model
                    .distance_values(&b)
                    .map(|ds| ds.into_iter().filter(|d| *d >= cache).count());
                assert_eq!(eval.distances_above(&inputs, cache), above);
            }
        }
    }

    fn component(count: Expr, distance: StackDistance) -> crate::partition::Component {
        crate::partition::Component {
            array: sdlo_ir::ArrayId(0),
            stmt: sdlo_ir::StmtId(0),
            ref_idx: 0,
            kind: crate::partition::ComponentKind::Compulsory,
            count,
            distance,
        }
    }

    #[test]
    fn a_failed_i64_run_reruns_in_i128() {
        // One component whose count and constant distance are both the
        // expression: `misses`, `misses_at` and `distances_above` must
        // answer what the tree walk answers, value or error.
        let (a, b, n, m) = (
            Expr::var("A"),
            Expr::var("B"),
            Expr::var("N"),
            Expr::var("M"),
        );
        let ceil =
            |x: Expr, y: &Expr| Expr::from_atom(Atom::CeilDiv(Box::new(x), Box::new(y.clone())));
        let floor =
            |x: Expr, y: &Expr| Expr::from_atom(Atom::FloorDiv(Box::new(x), Box::new(y.clone())));
        // `max(1, 2^40)^2` folds to the literal 2^80, which is pooled.
        let big = Expr::from_atom(Atom::Max(vec![Expr::from(1), Expr::from(1 << 40)])).pow(2);
        let none = Bindings::new;
        let min: i128 = i64::MIN.into();
        let cases = [
            (
                "an intermediate beyond i64",
                ceil(n.pow(3), &n.pow(2)),
                none().with("N", 1 << 22),
                Ok(1 << 22),
            ),
            (
                "a product beyond i128",
                n.pow(5),
                none().with("N", 1 << 30),
                Err(overflow()),
            ),
            (
                "i64::MIN / -1, back in range",
                floor(a.clone(), &b) - Expr::from(1),
                none().with("A", min).with("B", -1),
                Ok(i64::MAX as u64),
            ),
            (
                "i64::MIN / -1",
                ceil(a.clone(), &b),
                none().with("A", min).with("B", -1),
                Err(overflow()),
            ),
            (
                "an input beyond i64",
                floor(n.clone(), &m),
                none().with("N", 1 << 64).with("M", 1 << 32),
                Ok(1 << 32),
            ),
            (
                "a pooled constant beyond i64",
                floor(big.clone(), &m),
                none().with("M", 1 << 30),
                Ok(1 << 50),
            ),
            (
                "a negative count",
                a.clone() - b.clone(),
                none().with("A", 3).with("B", 8),
                Err(ModelError::NegativeCount(-5)),
            ),
            (
                "a division by zero",
                ceil(n.clone(), &m),
                none().with("N", 8).with("M", 0),
                Err(ModelError::Eval(EvalError::DivisionByZero)),
            ),
        ];
        for (what, e, b, want) in cases {
            let model =
                MissModel::from_components(vec![component(e.clone(), StackDistance::Constant(e))]);
            let tape = Tape::compile(&model);
            let values = tape.bind(&b).unwrap();
            assert_eq!(model.predict_misses(&b, 1), want, "{what}: the tree walk");
            let sizes = [1, 1 << 20, u64::MAX];
            let mut eval = tape.evaluator();
            for c in sizes {
                assert_eq!(
                    eval.misses(&values, c),
                    model.predict_misses(&b, c),
                    "{what}: misses at {c}"
                );
                let above = model
                    .distance_values(&b)
                    .map(|ds| ds.into_iter().filter(|d| *d >= c).count());
                assert_eq!(
                    eval.distances_above(&values, c),
                    above,
                    "{what}: distances at {c}"
                );
            }
            let totals: Result<Vec<u64>, _> =
                sizes.iter().map(|&c| model.predict_misses(&b, c)).collect();
            assert_eq!(tape.misses_at(&values, &sizes), totals, "{what}: misses_at");
        }
        let pooled = Tape::compile(&MissModel::from_components(vec![component(
            floor(big, &m),
            StackDistance::Infinite,
        )]));
        assert!(
            pooled.misses.narrow_consts.is_none(),
            "max(1, 2^40)^2 = 2^80 is pooled"
        );
    }

    #[test]
    fn a_total_overflows_before_a_later_component_fails() {
        let component = |count: Expr| component(count, StackDistance::Infinite);
        let failing = component(Expr::from(1).ceil_div(&Expr::var("Z")));
        let b = Bindings::new().with("N", i64::MAX.into()).with("Z", 0);
        // Two maximal counts still fit in a u64 total, three do not: the
        // tree walk fails on whichever it reaches first, at every size.
        for (big, want) in [
            (2, ModelError::Eval(EvalError::DivisionByZero)),
            (3, overflow()),
        ] {
            let mut components = vec![component(Expr::var("N")); big];
            components.push(failing.clone());
            let model = MissModel::from_components(components);
            assert_eq!(model.predict_misses(&b, 1), Err(want.clone()));
            let tape = Tape::compile(&model);
            let values = tape.bind(&b).unwrap();
            assert_eq!(tape.evaluator().misses(&values, 1), Err(want.clone()));
            assert_eq!(tape.misses_at(&values, &[1, 1 << 40]), Err(want));
        }
    }

    #[test]
    fn misses_at_prices_every_size_from_one_run() {
        let model = MissModel::build(&programs::tiled_matmul());
        let inputs = syms(&["Ni", "Nj", "Nk", "Ti", "Tj", "Tk"]);
        let tape = Tape::compile(&model);
        let values = [256, 256, 256, 64, 32, 16];
        let b: Bindings = inputs.iter().cloned().zip(values).collect();
        let sizes = [64, 2048, 8192];
        let want: Vec<u64> = sizes
            .iter()
            .map(|&c| model.predict_misses(&b, c).unwrap())
            .collect();
        assert_eq!(tape.misses_at(&values, &sizes), Ok(want));
        assert_eq!(tape.misses_at(&values, &[]), Ok(vec![]));
        assert_eq!(tape.inputs(), &inputs[..]);
        assert!(tape.op_count() > 0);
    }

    #[test]
    fn bind_fails_for_the_first_unbound_input() {
        // The inputs are every symbol the model reads, sorted. A binding
        // for any other symbol is ignored; one left unbound fails with the
        // tree walk's error before any op runs.
        let model = MissModel::build(&programs::tiled_matmul());
        let tape = Tape::compile(&model);
        assert_eq!(
            tape.inputs(),
            &syms(&["Ni", "Nj", "Nk", "Ti", "Tj", "Tk"])[..]
        );
        let full = Bindings::new()
            .with("Tk", 8)
            .with("Ni", 64)
            .with("Unused", 3)
            .with("Nj", 32)
            .with("Nk", 16)
            .with("Ti", 4)
            .with("Tj", 2);
        assert_eq!(tape.bind(&full), Ok(vec![64, 32, 16, 4, 2, 8]));
        for s in tape.inputs() {
            let b: Bindings = full
                .iter()
                .filter(|(t, _)| *t != s)
                .map(|(t, v)| (t.clone(), v))
                .collect();
            let unbound = ModelError::Eval(EvalError::Unbound(s.clone()));
            assert_eq!(tape.bind(&b), Err(unbound.clone()));
            assert_eq!(model.predict_misses(&b, 1024), Err(unbound));
        }
        let tiles = Bindings::new().with("Ti", 8).with("Tj", 8).with("Tk", 8);
        assert_eq!(
            tape.bind(&tiles),
            Err(ModelError::Eval(EvalError::Unbound(Sym::new("Ni"))))
        );
    }
}
