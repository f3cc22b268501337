//! Real multithreaded kernels, partitioned exactly as the §7 analysis
//! assumes: a dependence-free outer tile loop is block-distributed over
//! scoped threads — each thread gets one contiguous block of its tiles —
//! and each thread runs the sequential tiled code on its block (with a
//! private `T` buffer for the two-index transform). Every output element is
//! computed by one thread in the sequential order, so results are
//! bit-identical at every thread count.
//!
//! These kernels provide the measured side of Figures 10–11 and the
//! numerical ground truth for the transformations.

/// Tiles per thread when `tiles` outer tiles are block-distributed over
/// `threads` threads (at least one): the last block may be shorter.
fn block_len(tiles: usize, threads: usize) -> usize {
    tiles.div_ceil(threads.max(1)).max(1)
}

/// Naive triple-loop matrix multiplication (reference).
pub fn naive_matmul(a: &[f64], b: &[f64], n: usize) -> Vec<f64> {
    let mut c = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            let aij = a[i * n + j];
            for k in 0..n {
                c[i * n + k] += aij * b[j * n + k];
            }
        }
    }
    c
}

/// Tiled, multithreaded matrix multiplication `C[i,k] += A[i,j]·B[j,k]`.
///
/// The `i` tile loop is block-partitioned across `threads` threads (each
/// thread owns a contiguous band of `C` rows — the Fig. 8/9 partitioning).
/// Tile sizes must divide `n`.
pub fn tiled_matmul(
    a: &[f64],
    b: &[f64],
    n: usize,
    tiles: (usize, usize, usize),
    threads: usize,
) -> Vec<f64> {
    let (ti, tj, tk) = tiles;
    assert!(
        n.is_multiple_of(ti) && n.is_multiple_of(tj) && n.is_multiple_of(tk),
        "tiles must divide n"
    );
    assert_eq!(a.len(), n * n);
    assert_eq!(b.len(), n * n);
    let mut c = vec![0.0; n * n];
    let band = ti * n;
    let per_thread = block_len(n / ti, threads);
    std::thread::scope(|s| {
        for (block, c_block) in c.chunks_mut(per_thread * band).enumerate() {
            s.spawn(move || {
                for (k, c_band) in c_block.chunks_mut(band).enumerate() {
                    let i0 = (block * per_thread + k) * ti;
                    for jt in (0..n).step_by(tj) {
                        for kt in (0..n).step_by(tk) {
                            for ii in 0..ti {
                                let arow = &a[(i0 + ii) * n..];
                                let crow = &mut c_band[ii * n..(ii + 1) * n];
                                for jj in 0..tj {
                                    let aij = arow[jt + jj];
                                    let brow = &b[(jt + jj) * n..];
                                    for kk in 0..tk {
                                        crow[kt + kk] += aij * brow[kt + kk];
                                    }
                                }
                            }
                        }
                    }
                }
            });
        }
    });
    c
}

/// Naive two-index transform `B[m,n] = Σ_{i,j} C1[m,i]·C2[n,j]·A[i,j]`
/// via the operation-minimal two-step form (reference).
pub fn naive_two_index(a: &[f64], c1: &[f64], c2: &[f64], n: usize) -> Vec<f64> {
    // T[n',i] = Σ_j C2[n',j]·A[i,j]
    let mut t = vec![0.0; n * n];
    for nn in 0..n {
        for i in 0..n {
            let mut acc = 0.0;
            for j in 0..n {
                acc += c2[nn * n + j] * a[i * n + j];
            }
            t[nn * n + i] = acc;
        }
    }
    // B[m,n'] = Σ_i C1[m,i]·T[n',i]
    let mut bb = vec![0.0; n * n];
    for m in 0..n {
        for nn in 0..n {
            let mut acc = 0.0;
            for i in 0..n {
                acc += c1[m * n + i] * t[nn * n + i];
            }
            bb[m * n + nn] = acc;
        }
    }
    bb
}

/// Tiled, multithreaded two-index transform (the paper's Fig. 6 code).
///
/// The `nT` tile loop is block-partitioned across `threads` threads; each
/// thread owns the `B` columns of its `n`-tiles and a private `Ti × Tn`
/// buffer `T`, so the execution is synchronization-free (§7). Tile sizes
/// must divide `n`. Returns `B` in row-major `n × n` layout.
pub fn tiled_two_index(
    a: &[f64],
    c1: &[f64],
    c2: &[f64],
    n: usize,
    tiles: (usize, usize, usize, usize),
    threads: usize,
) -> Vec<f64> {
    let (ti, tj, tm, tn) = tiles;
    for t in [ti, tj, tm, tn] {
        assert!(n.is_multiple_of(t), "tile {t} must divide n = {n}");
    }
    let n_tiles = n / tn;
    // Each nT tile produces an (n × tn) column block of B.
    let column_block = |nt: usize| {
        let n0 = nt * tn;
        let mut b_block = vec![0.0; n * tn]; // row-major n × tn
        let mut t_buf = vec![0.0; ti * tn];
        for i0 in (0..n).step_by(ti) {
            // T[iI, nI] = Σ_j A[i0+iI, j] · C2[n0+nI, j], tiled on j.
            t_buf.fill(0.0);
            for j0 in (0..n).step_by(tj) {
                for ii in 0..ti {
                    let arow = &a[(i0 + ii) * n..];
                    for ni in 0..tn {
                        let c2row = &c2[(n0 + ni) * n..];
                        let mut acc = 0.0;
                        for jj in 0..tj {
                            acc += arow[j0 + jj] * c2row[j0 + jj];
                        }
                        t_buf[ii * tn + ni] += acc;
                    }
                }
            }
            // B[m, n0+nI] += T[iI, nI] · C1[m, i0+iI], tiled on m.
            for m0 in (0..n).step_by(tm) {
                for ii in 0..ti {
                    for ni in 0..tn {
                        let t_v = t_buf[ii * tn + ni];
                        for mi in 0..tm {
                            b_block[(m0 + mi) * tn + ni] += t_v * c1[(m0 + mi) * n + i0 + ii];
                        }
                    }
                }
            }
        }
        b_block
    };
    let per_thread = block_len(n_tiles, threads);
    let blocks: Vec<Vec<f64>> = std::thread::scope(|s| {
        let column_block = &column_block;
        let workers: Vec<_> = (0..n_tiles)
            .step_by(per_thread)
            .map(|first| {
                let last = (first + per_thread).min(n_tiles);
                s.spawn(move || (first..last).map(column_block).collect::<Vec<_>>())
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("kernel thread panicked"))
            .collect()
    });
    // Stitch column blocks into a row-major matrix.
    let mut out = vec![0.0; n * n];
    for (nt, block) in blocks.iter().enumerate() {
        let n0 = nt * tn;
        for m in 0..n {
            out[m * n + n0..m * n + n0 + tn].copy_from_slice(&block[m * tn..(m + 1) * tn]);
        }
    }
    out
}

/// Deterministic pseudo-random test matrix.
pub fn test_matrix(n: usize, seed: u64) -> Vec<f64> {
    let mut x = seed | 1;
    (0..n * n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            ((x % 1000) as f64) / 500.0 - 1.0
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs()),
                "elem {i}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn tiled_matmul_matches_naive_any_threads() {
        let n = 32;
        let a = test_matrix(n, 1);
        let b = test_matrix(n, 2);
        let reference = naive_matmul(&a, &b, n);
        for threads in [1, 2, 4] {
            let c = tiled_matmul(&a, &b, n, (8, 4, 16), threads);
            assert_close(&c, &reference, 1e-12);
        }
    }

    #[test]
    fn tiled_two_index_matches_naive_any_threads() {
        let n = 32;
        let a = test_matrix(n, 3);
        let c1 = test_matrix(n, 4);
        let c2 = test_matrix(n, 5);
        let reference = naive_two_index(&a, &c1, &c2, n);
        for threads in [1, 2, 4, 8] {
            let b = tiled_two_index(&a, &c1, &c2, n, (8, 4, 16, 8), threads);
            assert_close(&b, &reference, 1e-9);
        }
    }

    #[test]
    fn thread_count_does_not_change_results_bitwise() {
        // Block partitioning plus private buffers ⇒ identical operation
        // order per element regardless of thread count. Six outer tiles do
        // not split evenly over 4 threads, and 8 threads outnumber them.
        let n = 24;
        let a = test_matrix(n, 7);
        let c1 = test_matrix(n, 8);
        let c2 = test_matrix(n, 9);
        let mm1 = tiled_matmul(&a, &c1, n, (4, 8, 4), 1);
        let ti1 = tiled_two_index(&a, &c1, &c2, n, (4, 4, 4, 4), 1);
        for threads in [2, 4, 8] {
            assert_eq!(tiled_matmul(&a, &c1, n, (4, 8, 4), threads), mm1);
            let ti = tiled_two_index(&a, &c1, &c2, n, (4, 4, 4, 4), threads);
            assert_eq!(ti, ti1, "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn rejects_non_dividing_tiles() {
        let n = 10;
        let a = test_matrix(n, 1);
        let _ = tiled_matmul(&a, &a, n, (3, 5, 5), 1);
    }
}
