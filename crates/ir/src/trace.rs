//! Compilation of a [`Program`] against concrete bindings into a flat,
//! allocation-free walker that streams the program's exact memory reference
//! trace.
//!
//! The paper validates its analytical model against a trace-driven simulator
//! (SimpleScalar's `sim-cache`). Our traces come straight from the IR: every
//! statement instance emits one [`Access`] per array reference, in reference
//! order. Traces for the paper's configurations reach hundreds of millions of
//! accesses, so they are *never* materialized — the walker invokes a callback
//! per access, and all per-access address arithmetic is pre-folded into
//! affine `(loop-slot, coefficient)` terms at compile time. In a loop whose
//! body holds only statements, the walker sums each reference's terms once
//! on entry and then steps its address by a fixed stride per iteration.

use crate::node::{Node, Stmt, StmtKind};
use crate::program::{ArrayId, Program, StmtId};
use sdlo_symbolic::{Bindings, EvalError};

/// One memory reference of the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// The array referenced.
    pub array: ArrayId,
    /// Global element address (arrays laid out back-to-back, element units).
    pub addr: u64,
    /// Whether this reference writes.
    pub is_write: bool,
    /// The statement performing the access.
    pub stmt: StmtId,
}

/// Errors from [`CompiledProgram::compile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// A bound, stride or extent failed to evaluate.
    Eval(sdlo_symbolic::EvalError),
    /// A loop bound or array extent evaluated to a non-positive value.
    NonPositive { what: String, value: i64 },
    /// A reference can address past the end of its array.
    OutOfRange {
        array: String,
        max_index: u64,
        size: u64,
    },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Eval(e) => write!(f, "evaluation failed: {e}"),
            CompileError::NonPositive { what, value } => {
                write!(f, "{what} evaluated to non-positive value {value}")
            }
            CompileError::OutOfRange {
                array,
                max_index,
                size,
            } => write!(
                f,
                "reference to `{array}` reaches element {max_index}, array has {size}"
            ),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<sdlo_symbolic::EvalError> for CompileError {
    fn from(e: sdlo_symbolic::EvalError) -> Self {
        CompileError::Eval(e)
    }
}

/// An array with concrete extents and a base address in the global element
/// address space.
#[derive(Debug, Clone)]
pub struct CompiledArray {
    /// Original id.
    pub id: ArrayId,
    /// First element's global address.
    pub base: u64,
    /// Concrete extents, row-major.
    pub dims: Vec<u64>,
    /// Total elements.
    pub size: u64,
}

/// Pre-folded affine reference: `addr = base + Σ coef·iv[slot]` where
/// `iv[slot]` is the 0-based counter of the loop occupying `slot`.
#[derive(Debug, Clone)]
pub(crate) struct CRef {
    pub array: ArrayId,
    pub is_write: bool,
    pub base: u64,
    pub terms: Vec<(usize, u64)>,
    /// The coefficient of the innermost enclosing loop (0 if the reference
    /// does not vary with it): the address step per iteration of a
    /// [`CNode::Stepped`] loop.
    pub step: u64,
}

impl CRef {
    /// Offset within the array at loop counters `iv`.
    #[inline]
    pub(crate) fn offset(&self, iv: &[u64]) -> u64 {
        self.terms.iter().map(|&(slot, coef)| iv[slot] * coef).sum()
    }
}

#[derive(Debug, Clone)]
pub(crate) struct CStmt {
    pub stmt: StmtId,
    pub kind: StmtKind,
    pub refs: Vec<CRef>,
}

#[derive(Debug, Clone)]
pub(crate) enum CNode {
    /// A loop whose body holds at least one loop.
    Loop {
        bound: u64,
        slot: usize,
        body: Vec<CNode>,
    },
    /// A loop whose body holds only statements.
    Stepped {
        bound: u64,
        slot: usize,
        body: Vec<CStmt>,
    },
    /// A statement outside any stepped loop: at the top level or beside
    /// loops.
    Stmt(CStmt),
}

/// A program specialized to concrete bounds/tile sizes, ready to stream its
/// reference trace or be executed.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    pub(crate) arrays: Vec<CompiledArray>,
    pub(crate) root: Vec<CNode>,
    pub(crate) n_slots: usize,
    total_accesses: u64,
}

impl CompiledProgram {
    /// Specialize `program` to `bindings` (which must bind every free symbol).
    pub fn compile(program: &Program, bindings: &Bindings) -> Result<Self, CompileError> {
        // Lay arrays out back-to-back in one element address space.
        let mut arrays = Vec::with_capacity(program.arrays.len());
        let mut base = 0u64;
        for decl in &program.arrays {
            let mut dims = Vec::with_capacity(decl.dims.len());
            for d in &decl.dims {
                let v = d.eval(bindings)?;
                if v <= 0 {
                    return Err(CompileError::NonPositive {
                        what: format!("extent of `{}`", decl.name),
                        value: v,
                    });
                }
                dims.push(v as u64);
            }
            let size = dims
                .iter()
                .try_fold(1u64, |acc, &d| acc.checked_mul(d))
                .ok_or(EvalError::Overflow)?;
            arrays.push(CompiledArray {
                id: decl.id,
                base,
                dims,
                size,
            });
            base = base.checked_add(size).ok_or(EvalError::Overflow)?;
        }

        struct Ctx<'a> {
            program: &'a Program,
            bindings: &'a Bindings,
            arrays: &'a [CompiledArray],
            // (index, slot, bound) for enclosing loops.
            loops: Vec<(sdlo_symbolic::Sym, usize, u64)>,
            n_slots: usize,
            total: u64,
        }

        fn compile_node(node: &Node, ctx: &mut Ctx<'_>) -> Result<CNode, CompileError> {
            let l = match node {
                Node::Loop(l) => l,
                Node::Stmt(s) => return Ok(CNode::Stmt(compile_stmt(s, ctx)?)),
            };
            let b = l.bound.eval(ctx.bindings)?;
            if b <= 0 {
                return Err(CompileError::NonPositive {
                    what: format!("bound of loop `{}`", l.index),
                    value: b,
                });
            }
            let (bound, slot) = (b as u64, ctx.loops.len());
            ctx.n_slots = ctx.n_slots.max(slot + 1);
            ctx.loops.push((l.index.clone(), slot, bound));
            let stmts: Vec<&Stmt> = l
                .body
                .iter()
                .filter_map(|n| match n {
                    Node::Stmt(s) => Some(s),
                    Node::Loop(_) => None,
                })
                .collect();
            let node = if stmts.len() == l.body.len() {
                let body = stmts
                    .into_iter()
                    .map(|s| compile_stmt(s, ctx))
                    .collect::<Result<_, _>>()?;
                CNode::Stepped { bound, slot, body }
            } else {
                let body = l
                    .body
                    .iter()
                    .map(|n| compile_node(n, ctx))
                    .collect::<Result<_, _>>()?;
                CNode::Loop { bound, slot, body }
            };
            ctx.loops.pop();
            Ok(node)
        }

        fn compile_stmt(s: &Stmt, ctx: &mut Ctx<'_>) -> Result<CStmt, CompileError> {
            let mut iterations = 1u64;
            for (_, _, b) in &ctx.loops {
                iterations = iterations.saturating_mul(*b);
            }
            ctx.total = ctx
                .total
                .saturating_add(iterations.saturating_mul(s.refs.len() as u64));
            let innermost = ctx.loops.last().map(|&(_, slot, _)| slot);
            let mut refs = Vec::with_capacity(s.refs.len());
            for r in &s.refs {
                let arr = &ctx.arrays[r.array.0];
                // Row-major factors: factor[d] = product of extents after d.
                let mut factor = vec![1u64; arr.dims.len()];
                for d in (0..arr.dims.len().saturating_sub(1)).rev() {
                    factor[d] = factor[d + 1]
                        .checked_mul(arr.dims[d + 1])
                        .ok_or(EvalError::Overflow)?;
                }
                let mut terms: Vec<(usize, u64)> = Vec::new();
                let mut max_linear = 0u64;
                for (d, dim) in r.dims.iter().enumerate() {
                    for (idx, stride) in &dim.parts {
                        let (_, slot, bound) = ctx
                            .loops
                            .iter()
                            .find(|(s2, _, _)| s2 == idx)
                            .expect("validated: index bound by enclosing loop");
                        let stride = stride.eval(ctx.bindings)?;
                        if stride <= 0 {
                            return Err(CompileError::NonPositive {
                                what: format!("stride of `{idx}`"),
                                value: stride,
                            });
                        }
                        let coef = (stride as u64)
                            .checked_mul(factor[d])
                            .ok_or(EvalError::Overflow)?;
                        max_linear = (bound - 1)
                            .checked_mul(coef)
                            .and_then(|m| m.checked_add(max_linear))
                            .ok_or(EvalError::Overflow)?;
                        match terms.iter_mut().find(|(s3, _)| *s3 == *slot) {
                            Some(t) => t.1 = t.1.checked_add(coef).ok_or(EvalError::Overflow)?,
                            None => terms.push((*slot, coef)),
                        }
                    }
                }
                if max_linear >= arr.size {
                    let name = ctx.program.array(r.array).name.clone();
                    return Err(CompileError::OutOfRange {
                        array: name.name().to_string(),
                        max_index: max_linear,
                        size: arr.size,
                    });
                }
                let step = terms
                    .iter()
                    .find(|&&(slot, _)| Some(slot) == innermost)
                    .map_or(0, |&(_, coef)| coef);
                refs.push(CRef {
                    array: r.array,
                    is_write: r.is_write,
                    base: arr.base,
                    terms,
                    step,
                });
            }
            Ok(CStmt {
                stmt: s.id,
                kind: s.kind,
                refs,
            })
        }

        let mut ctx = Ctx {
            program,
            bindings,
            arrays: &arrays,
            loops: Vec::new(),
            n_slots: 0,
            total: 0,
        };
        let root = program
            .root
            .iter()
            .map(|n| compile_node(n, &mut ctx))
            .collect::<Result<Vec<_>, _>>()?;
        let (n_slots, total_accesses) = (ctx.n_slots, ctx.total);
        Ok(CompiledProgram {
            arrays,
            root,
            n_slots,
            total_accesses,
        })
    }

    /// Array layout produced by compilation.
    pub fn arrays(&self) -> &[CompiledArray] {
        &self.arrays
    }

    /// Total number of accesses the trace will contain.
    pub fn total_accesses(&self) -> u64 {
        self.total_accesses
    }

    /// Total elements across all arrays (footprint, element units).
    pub fn total_elements(&self) -> u64 {
        self.arrays.iter().map(|a| a.size).sum()
    }

    /// Stream the reference trace, invoking `f` once per access in exact
    /// program execution order.
    pub fn walk(&self, f: &mut impl FnMut(Access)) {
        let mut iv = vec![0u64; self.n_slots];
        let mut addrs = Vec::new();
        for n in &self.root {
            walk_node(n, &mut iv, &mut addrs, f);
        }
    }
}

/// `addrs` holds the current addresses of a stepped loop's
/// references; stepped loops do not nest, so one buffer serves them all.
fn walk_node(node: &CNode, iv: &mut [u64], addrs: &mut Vec<u64>, f: &mut impl FnMut(Access)) {
    match node {
        CNode::Loop { bound, slot, body } => {
            for i in 0..*bound {
                iv[*slot] = i;
                for n in body {
                    walk_node(n, iv, addrs, f);
                }
            }
        }
        CNode::Stepped { bound, slot, body } => {
            iv[*slot] = 0;
            addrs.clear();
            addrs.extend(
                body.iter()
                    .flat_map(|s| &s.refs)
                    .map(|r| r.base + r.offset(iv)),
            );
            for _ in 0..*bound {
                let mut addr = addrs.iter_mut();
                for s in body {
                    // `refs` first, so that zip stops without taking an
                    // address from the next statement.
                    for (r, a) in s.refs.iter().zip(addr.by_ref()) {
                        f(Access {
                            array: r.array,
                            addr: *a,
                            is_write: r.is_write,
                            stmt: s.stmt,
                        });
                        // Past the last iteration the address is never
                        // read, so that step may wrap.
                        *a = a.wrapping_add(r.step);
                    }
                }
            }
        }
        CNode::Stmt(s) => {
            for r in &s.refs {
                f(Access {
                    array: r.array,
                    addr: r.base + r.offset(iv),
                    is_write: r.is_write,
                    stmt: s.stmt,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs;
    use sdlo_symbolic::Expr;

    #[test]
    fn matmul_trace_has_expected_length_and_addresses() {
        let p = programs::matmul();
        let b = Bindings::new().with("Ni", 3).with("Nj", 3).with("Nk", 3);
        let c = CompiledProgram::compile(&p, &b).unwrap();
        // N^2 zero stmts (1 ref) + N^3 mul-add stmts (3 refs each... C read+write
        // folded to refs in access order).
        let mut n = 0u64;
        let mut max_addr = 0;
        c.walk(&mut |a| {
            n += 1;
            max_addr = max_addr.max(a.addr);
        });
        assert_eq!(n, c.total_accesses());
        assert!(max_addr < c.total_elements());
    }

    #[test]
    fn addresses_are_row_major() {
        // A[i,j] with N=2: addresses 0,1,2,3 as (i,j) = (1,1),(1,2),(2,1),(2,2).
        let mut p = Program::new("rm");
        let a = p.declare("A", vec![Expr::var("N"), Expr::var("N")]);
        p.root = vec![Node::loop_(
            "i",
            Expr::var("N"),
            vec![Node::loop_(
                "j",
                Expr::var("N"),
                vec![Node::Stmt(crate::Stmt {
                    id: StmtId(0),
                    label: "A[i,j] = 0".into(),
                    refs: vec![crate::ArrayRef::write(
                        a,
                        vec![crate::DimExpr::index("i"), crate::DimExpr::index("j")],
                    )],
                    kind: StmtKind::ZeroLhs,
                })],
            )],
        )];
        p.validate().unwrap();
        let c = CompiledProgram::compile(&p, &Bindings::new().with("N", 2)).unwrap();
        let mut addrs = vec![];
        c.walk(&mut |a| addrs.push(a.addr));
        assert_eq!(addrs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn tiled_dims_fold_to_affine_addresses() {
        // A[iT+iI] with N=4, Ti=2 must produce 0,1,2,3 across the two tiles.
        let ti = Expr::var("Ti");
        let mut p = Program::new("tiled1d");
        let a = p.declare("A", vec![Expr::var("N")]);
        p.root = vec![Node::loop_(
            "iT",
            Expr::var("N").ceil_div(&ti),
            vec![Node::loop_(
                "iI",
                ti.clone(),
                vec![Node::Stmt(crate::Stmt {
                    id: StmtId(0),
                    label: "A[iT+iI] = 0".into(),
                    refs: vec![crate::ArrayRef::write(
                        a,
                        vec![crate::DimExpr::tiled("iT", ti.clone(), "iI")],
                    )],
                    kind: StmtKind::ZeroLhs,
                })],
            )],
        )];
        p.validate().unwrap();
        let c = CompiledProgram::compile(&p, &Bindings::new().with("N", 4).with("Ti", 2)).unwrap();
        let mut addrs = vec![];
        c.walk(&mut |a| addrs.push(a.addr));
        assert_eq!(addrs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn compile_rejects_missing_binding() {
        let p = programs::matmul();
        assert!(matches!(
            CompiledProgram::compile(&p, &Bindings::new()),
            Err(CompileError::Eval(_))
        ));
    }

    /// The walker without stepping: every access re-sums its reference's
    /// terms at the current loop counters.
    fn resummed_trace(c: &CompiledProgram) -> Vec<Access> {
        fn stmt(s: &CStmt, iv: &[u64], out: &mut Vec<Access>) {
            for r in &s.refs {
                let offset: u64 = r.terms.iter().map(|&(slot, coef)| iv[slot] * coef).sum();
                out.push(Access {
                    array: r.array,
                    addr: r.base + offset,
                    is_write: r.is_write,
                    stmt: s.stmt,
                });
            }
        }
        fn node(n: &CNode, iv: &mut [u64], out: &mut Vec<Access>) {
            match n {
                CNode::Loop { bound, slot, body } => {
                    for i in 0..*bound {
                        iv[*slot] = i;
                        body.iter().for_each(|n| node(n, iv, out));
                    }
                }
                CNode::Stepped { bound, slot, body } => {
                    for i in 0..*bound {
                        iv[*slot] = i;
                        body.iter().for_each(|s| stmt(s, iv, out));
                    }
                }
                CNode::Stmt(s) => stmt(s, iv, out),
            }
        }
        let mut iv = vec![0; c.n_slots];
        let mut out = Vec::new();
        c.root.iter().for_each(|n| node(n, &mut iv, &mut out));
        out
    }

    #[test]
    fn stepped_walk_matches_resummed_terms() {
        let bindings = |n: i128, tiles: [i128; 5]| -> Bindings {
            ["Ni", "Nj", "Nk", "Nm", "Nn"]
                .into_iter()
                .map(|s| (s, n))
                .chain(["Ti", "Tj", "Tk", "Tm", "Tn"].into_iter().zip(tiles))
                .collect()
        };
        // No builtin steps more than one statement per loop, so add
        // `for i, j: A[i,j] = 0; B[j,i] = A[i,j]`.
        let mut two_stmts = Program::new("two-stmts");
        let a = two_stmts.declare("A", vec![Expr::var("Ni"), Expr::var("Nj")]);
        let b = two_stmts.declare("B", vec![Expr::var("Nj"), Expr::var("Ni")]);
        let (i, j) = (crate::DimExpr::index("i"), crate::DimExpr::index("j"));
        let stmt = |id, kind, refs| {
            Node::Stmt(crate::Stmt {
                id: StmtId(id),
                label: String::new(),
                refs,
                kind,
            })
        };
        two_stmts.root = vec![Node::loop_(
            "i",
            Expr::var("Ni"),
            vec![Node::loop_(
                "j",
                Expr::var("Nj"),
                vec![
                    stmt(
                        0,
                        StmtKind::ZeroLhs,
                        vec![crate::ArrayRef::write(a, vec![i.clone(), j.clone()])],
                    ),
                    stmt(
                        1,
                        StmtKind::Assign,
                        vec![
                            crate::ArrayRef::write(b, vec![j.clone(), i.clone()]),
                            crate::ArrayRef::read(a, vec![i, j]),
                        ],
                    ),
                ],
            )],
        )];
        two_stmts.validate().unwrap();
        // Tiles that divide N, then tiles that do not, so extents are padded.
        let sets = [bindings(8, [4, 2, 8, 2, 4]), bindings(7, [3, 2, 4, 5, 3])];
        let builtins = programs::BUILTIN_NAMES.map(|n| programs::builtin(n).unwrap());
        for p in builtins.iter().chain([&two_stmts]) {
            for b in &sets {
                let c = CompiledProgram::compile(p, b).unwrap();
                let mut walked = Vec::new();
                c.walk(&mut |a| walked.push(a));
                assert_eq!(walked.len() as u64, c.total_accesses(), "{}", p.name);
                assert!(walked == resummed_trace(&c), "{}: traces differ", p.name);
            }
        }
        // `two_index_fused` keeps statements beside loops, outside any
        // stepped loop.
        let c = CompiledProgram::compile(&programs::two_index_fused(), &sets[0]).unwrap();
        let CNode::Loop { body, .. } = &c.root[0] else {
            panic!("outer loop holds a loop")
        };
        let CNode::Loop { body, .. } = &body[0] else {
            panic!("inner loop holds loops")
        };
        assert!(matches!(body[0], CNode::Stmt(_)));
    }

    #[test]
    fn compile_reports_overflowing_extents() {
        // A[Ni,Nj] alone holds 2^64 elements at 2^32, and more at 2^32 + 1.
        for n in [1i128 << 32, (1 << 32) + 1] {
            let b = Bindings::new().with("Ni", n).with("Nj", n).with("Nk", n);
            assert!(
                matches!(
                    CompiledProgram::compile(&programs::matmul(), &b),
                    Err(CompileError::Eval(EvalError::Overflow))
                ),
                "N = {n}"
            );
        }
    }

    #[test]
    fn compile_rejects_out_of_range() {
        // A declared with extent N but indexed by i in 1..=2N.
        let mut p = Program::new("oor");
        let a = p.declare("A", vec![Expr::var("N")]);
        p.root = vec![Node::loop_(
            "i",
            Expr::var("N") * Expr::from(2),
            vec![Node::Stmt(crate::Stmt {
                id: StmtId(0),
                label: "A[i] = 0".into(),
                refs: vec![crate::ArrayRef::write(a, vec![crate::DimExpr::index("i")])],
                kind: StmtKind::ZeroLhs,
            })],
        )];
        assert!(matches!(
            CompiledProgram::compile(&p, &Bindings::new().with("N", 4)),
            Err(CompileError::OutOfRange { .. })
        ));
    }
}
