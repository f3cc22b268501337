//! Direct execution of compiled programs over `f64` arrays.
//!
//! The analysis never looks at data values, but the *transformations* we
//! reproduce (fusion, tiling, parallelization) must preserve program
//! semantics; this interpreter gives every test a numerical ground truth.

use crate::node::StmtKind;
use crate::program::ArrayId;
use crate::trace::{CNode, CRef, CStmt, CompiledProgram};

/// Flat storage for all of a compiled program's arrays.
#[derive(Debug, Clone)]
pub struct Memory {
    data: Vec<Vec<f64>>,
}

/// Errors from [`execute`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The memory's shape does not match the compiled program.
    ShapeMismatch,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::ShapeMismatch => write!(f, "memory shape does not match program"),
        }
    }
}

impl std::error::Error for ExecError {}

impl Memory {
    /// Allocate zero-initialized storage matching `program`'s arrays.
    pub fn zeroed(program: &CompiledProgram) -> Self {
        Memory {
            data: program
                .arrays
                .iter()
                .map(|a| vec![0.0; a.size as usize])
                .collect(),
        }
    }

    /// Read-only view of one array's elements (row-major).
    pub fn array(&self, id: ArrayId) -> &[f64] {
        &self.data[id.0]
    }

    /// Mutable view of one array's elements (row-major).
    pub fn array_mut(&mut self, id: ArrayId) -> &mut [f64] {
        &mut self.data[id.0]
    }

    /// Fill an array from an iterator (for deterministic test inputs).
    pub fn fill_with(&mut self, id: ArrayId, f: impl Fn(usize) -> f64) {
        for (i, x) in self.data[id.0].iter_mut().enumerate() {
            *x = f(i);
        }
    }
}

/// Run `program` over `mem`, interpreting each statement's [`StmtKind`].
pub fn execute(program: &CompiledProgram, mem: &mut Memory) -> Result<(), ExecError> {
    if mem.data.len() != program.arrays.len()
        || mem
            .data
            .iter()
            .zip(&program.arrays)
            .any(|(v, a)| v.len() != a.size as usize)
    {
        return Err(ExecError::ShapeMismatch);
    }
    let mut iv = vec![0u64; program.n_slots];
    for n in &program.root {
        exec_node(n, &mut iv, mem);
    }
    Ok(())
}

/// Array index and within-array offset of a reference at the current
/// iteration point.
fn local_addr(r: &CRef, iv: &[u64]) -> (usize, usize) {
    (r.array.0, r.offset(iv) as usize)
}

fn exec_node(node: &CNode, iv: &mut [u64], mem: &mut Memory) {
    match node {
        CNode::Loop { bound, slot, body } => {
            for i in 0..*bound {
                iv[*slot] = i;
                for n in body {
                    exec_node(n, iv, mem);
                }
            }
        }
        CNode::Stepped { bound, slot, body } => {
            for i in 0..*bound {
                iv[*slot] = i;
                for s in body {
                    exec_stmt(s, iv, mem);
                }
            }
        }
        CNode::Stmt(s) => exec_stmt(s, iv, mem),
    }
}

fn exec_stmt(s: &CStmt, iv: &[u64], mem: &mut Memory) {
    let refs = &s.refs;
    match s.kind {
        StmtKind::ZeroLhs => {
            let (a, off) = local_addr(&refs[0], iv);
            mem.data[a][off] = 0.0;
        }
        StmtKind::Assign => {
            let (sa, soff) = local_addr(&refs[1], iv);
            let v = mem.data[sa][soff];
            let (da, doff) = local_addr(&refs[0], iv);
            mem.data[da][doff] = v;
        }
        StmtKind::MulAddAssign => {
            let (xa, xoff) = local_addr(&refs[1], iv);
            let (ya, yoff) = local_addr(&refs[2], iv);
            let v = mem.data[xa][xoff] * mem.data[ya][yoff];
            let (da, doff) = local_addr(&refs[0], iv);
            mem.data[da][doff] += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs;
    use crate::CompiledProgram;
    use sdlo_symbolic::Bindings;

    fn square(n: i128) -> Bindings {
        Bindings::new()
            .with("Ni", n)
            .with("Nj", n)
            .with("Nk", n)
            .with("Nm", n)
            .with("Nn", n)
    }

    #[test]
    fn matmul_computes_product() {
        let p = programs::matmul();
        let c = CompiledProgram::compile(&p, &square(3)).unwrap();
        let mut mem = Memory::zeroed(&c);
        let a_id = p.array_by_name("A").unwrap().id;
        let b_id = p.array_by_name("B").unwrap().id;
        let c_id = p.array_by_name("C").unwrap().id;
        mem.fill_with(a_id, |i| i as f64 + 1.0);
        mem.fill_with(b_id, |i| (i as f64) * 0.5);
        execute(&c, &mut mem).unwrap();
        // Naive reference.
        let (a, b) = (mem.array(a_id).to_vec(), mem.array(b_id).to_vec());
        let n = 3;
        for i in 0..n {
            for k in 0..n {
                let mut acc = 0.0;
                for j in 0..n {
                    acc += a[i * n + j] * b[j * n + k];
                }
                assert!((mem.array(c_id)[i * n + k] - acc).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn tiled_matmul_equals_untiled() {
        let n = 8;
        let pu = programs::matmul();
        let cu = CompiledProgram::compile(&pu, &square(n as i128)).unwrap();
        let pt = programs::tiled_matmul();
        let ct = CompiledProgram::compile(
            &pt,
            &square(n as i128).with("Ti", 4).with("Tj", 2).with("Tk", 8),
        )
        .unwrap();

        let mut mu = Memory::zeroed(&cu);
        let mut mt = Memory::zeroed(&ct);
        for (p, m, c) in [(&pu, &mut mu, &cu), (&pt, &mut mt, &ct)] {
            let _ = c;
            let a_id = p.array_by_name("A").unwrap().id;
            let b_id = p.array_by_name("B").unwrap().id;
            m.fill_with(a_id, |i| (i % 17) as f64 - 4.0);
            m.fill_with(b_id, |i| (i % 13) as f64 * 0.25);
        }
        execute(&cu, &mut mu).unwrap();
        execute(&ct, &mut mt).unwrap();
        let cu_id = pu.array_by_name("C").unwrap().id;
        let ct_id = pt.array_by_name("C").unwrap().id;
        assert_eq!(mu.array(cu_id), mt.array(ct_id));
    }

    #[test]
    fn fused_two_index_equals_unfused() {
        let n = 6;
        let pf = programs::two_index_fused();
        let pu = programs::two_index_unfused();
        let cf = CompiledProgram::compile(&pf, &square(n as i128)).unwrap();
        let cu = CompiledProgram::compile(&pu, &square(n as i128)).unwrap();
        let mut mf = Memory::zeroed(&cf);
        let mut mu = Memory::zeroed(&cu);
        for (p, m) in [(&pf, &mut mf), (&pu, &mut mu)] {
            for name in ["A", "C1", "C2"] {
                let id = p.array_by_name(name).unwrap().id;
                m.fill_with(id, |i| ((i * 7 + 3) % 19) as f64 - 9.0);
            }
        }
        execute(&cf, &mut mf).unwrap();
        execute(&cu, &mut mu).unwrap();
        let bf = mf.array(pf.array_by_name("B").unwrap().id);
        let bu = mu.array(pu.array_by_name("B").unwrap().id);
        for (x, y) in bf.iter().zip(bu) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn tiled_two_index_equals_unfused() {
        let n = 8;
        let pt = programs::tiled_two_index();
        let pu = programs::two_index_unfused();
        let bt = square(n as i128)
            .with("Ti", 2)
            .with("Tj", 4)
            .with("Tm", 8)
            .with("Tn", 2);
        let ct = CompiledProgram::compile(&pt, &bt).unwrap();
        let cu = CompiledProgram::compile(&pu, &square(n as i128)).unwrap();
        let mut mt = Memory::zeroed(&ct);
        let mut mu = Memory::zeroed(&cu);
        for (p, m) in [(&pt, &mut mt), (&pu, &mut mu)] {
            for name in ["A", "C1", "C2"] {
                let id = p.array_by_name(name).unwrap().id;
                m.fill_with(id, |i| ((i * 5 + 1) % 23) as f64 * 0.5 - 5.0);
            }
        }
        execute(&ct, &mut mt).unwrap();
        execute(&cu, &mut mu).unwrap();
        let b1 = mt.array(pt.array_by_name("B").unwrap().id);
        let b2 = mu.array(pu.array_by_name("B").unwrap().id);
        for (x, y) in b1.iter().zip(b2) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    #[test]
    fn shape_mismatch_detected() {
        let p = programs::matmul();
        let c3 = CompiledProgram::compile(&p, &square(3)).unwrap();
        let c4 = CompiledProgram::compile(&p, &square(4)).unwrap();
        let mut mem = Memory::zeroed(&c3);
        assert_eq!(execute(&c4, &mut mem), Err(ExecError::ShapeMismatch));
    }
}
