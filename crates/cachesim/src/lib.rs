//! # sdlo-cachesim
//!
//! Trace-driven cache simulation substrate, standing in for the paper's use
//! of SimpleScalar's `sim-cache`.
//!
//! Two complementary simulators:
//!
//! * [`StackDistanceEngine`] — exact LRU stack distances over a dense
//!   block → last-slot table, a one-bit-per-slot liveness bitmap and a
//!   Fenwick tree over the bitmap's word popcounts; one pass over the trace
//!   yields miss counts for **every** fully associative capacity
//!   ([`StackDistHistogram::misses`]).
//!   This is the ground truth the paper's analytical model is validated
//!   against (Tables 2–3).
//! * [`SetAssocCache`] — concrete set-associative / direct-mapped LRU caches
//!   for conflict-miss ablations (the paper sidesteps conflicts by copying
//!   tiles; we can quantify what that buys).
//!
//! The `simulate_*` helpers drive either simulator from a compiled
//! [`sdlo_ir`] program without materializing the trace.

mod cache;
mod fenwick;
mod lru;

pub use cache::{CacheStats, SetAssocCache};
pub use lru::{Distance, StackDistHistogram, StackDistanceEngine};

use sdlo_ir::CompiledProgram;

/// Address granularity for stack-distance simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Granularity {
    /// One block per array element (the paper's accounting: arrays of
    /// `f64`, one element per cache block).
    Element,
    /// Cache lines of `n` elements (spatial locality).
    Line(u64),
}

impl Granularity {
    #[inline]
    fn map(self, addr: u64) -> u64 {
        match self {
            Granularity::Element => addr,
            Granularity::Line(n) => addr / n,
        }
    }

    fn blocks(self, elements: u64) -> u64 {
        match self {
            Granularity::Element => elements,
            Granularity::Line(n) => elements.div_ceil(n),
        }
    }
}

/// Run the exact LRU stack-distance simulation over a compiled program's
/// reference trace and return the stack-distance histogram.
pub fn simulate_stack_distances(
    program: &CompiledProgram,
    granularity: Granularity,
) -> StackDistHistogram {
    let span = sdlo_trace::span("cachesim.replay");
    span.attr("mode", "stack_distance");
    let blocks = granularity.blocks(program.total_elements());
    let mut engine = StackDistanceEngine::with_dense_addresses(blocks);
    program.walk(&mut |a| {
        engine.access(granularity.map(a.addr));
    });
    span.add("accesses", program.total_accesses());
    span.add("blocks", blocks);
    engine.into_histogram()
}

/// Misses of a fully associative LRU cache of `capacity_blocks` over the
/// program's trace (single capacity; use [`simulate_stack_distances`] to
/// query many capacities at once).
pub fn simulate_fully_associative(
    program: &CompiledProgram,
    capacity_blocks: u64,
    granularity: Granularity,
) -> u64 {
    simulate_stack_distances(program, granularity).misses(capacity_blocks)
}

/// Drive a concrete cache model over the program's trace.
pub fn simulate_cache(program: &CompiledProgram, cache: &mut SetAssocCache) -> CacheStats {
    let span = sdlo_trace::span("cachesim.replay");
    span.attr("mode", "set_assoc");
    program.walk(&mut |a| {
        cache.access_addr(a.addr);
    });
    span.add("accesses", program.total_accesses());
    cache.stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdlo_ir::{programs, Bindings};

    fn square(n: i128) -> Bindings {
        Bindings::new().with("Ni", n).with("Nj", n).with("Nk", n)
    }

    #[test]
    fn matmul_whole_problem_fits_in_cache() {
        let p = programs::matmul();
        let c = CompiledProgram::compile(&p, &square(8)).unwrap();
        let h = simulate_stack_distances(&c, Granularity::Element);
        // With capacity ≥ total footprint, only cold misses remain: 3·N².
        assert_eq!(h.misses(c.total_elements()), 3 * 64);
        assert_eq!(h.total(), c.total_accesses());
    }

    #[test]
    fn matmul_miss_counts_make_sense() {
        let n = 16u64;
        let p = programs::matmul();
        let c = CompiledProgram::compile(&p, &square(n as i128)).unwrap();
        let h = simulate_stack_distances(&c, Granularity::Element);
        // Tiny cache: nearly every access misses except short-distance reuse.
        let tiny = h.misses(2);
        assert!(tiny > n * n * n, "tiny-cache misses {tiny}");
        // Huge cache: cold misses only.
        assert_eq!(h.misses(u64::MAX), h.cold);
        assert_eq!(h.cold, 3 * n * n);
    }

    #[test]
    fn line_granularity_reduces_misses() {
        let p = programs::matmul();
        let c = CompiledProgram::compile(&p, &square(16)).unwrap();
        let he = simulate_stack_distances(&c, Granularity::Element);
        let hl = simulate_stack_distances(&c, Granularity::Line(8));
        assert!(hl.cold < he.cold);
    }

    #[test]
    fn concrete_fa_cache_agrees_with_histogram() {
        let p = programs::matmul();
        let c = CompiledProgram::compile(&p, &square(6)).unwrap();
        let h = simulate_stack_distances(&c, Granularity::Element);
        for capacity in [4u64, 16, 64] {
            let mut cache = SetAssocCache::fully_associative(capacity, 1);
            let stats = simulate_cache(&c, &mut cache);
            assert_eq!(stats.misses, h.misses(capacity), "capacity {capacity}");
        }
    }
}
