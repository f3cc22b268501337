//! # sdlo-tilesearch
//!
//! The paper's §6 tile-size search. Exhaustively trying every tile tuple is
//! wasteful; two properties of stack distances prune the space:
//!
//! 1. inter-tile reuses always have larger stack distances than intra-tile
//!    reuses, and
//! 2. growing a tile converts inter-tile reuses into intra-tile reuses
//!    monotonically.
//!
//! Consequently the miss count, as a function of tile size, *decreases*
//! between the points where some stack distance crosses the cache size and
//! *jumps* exactly at those points (the four phases of §6). Only tile
//! tuples that cannot be grown in any dimension without an additional stack
//! distance exceeding the cache size can be optimal; the search keeps those
//! *frontier* tuples and evaluates miss counts only for them.
//!
//! The bounds-free variant ([`TileSearcher::bounds_free`]) reproduces the
//! paper's Table 4: using only the stack-distance expressions that do not
//! involve loop bounds (bound-dependent distances certainly exceed any
//! fixed cache for large bounds, so they are treated as always missing), it
//! predicts tiles before the problem size is known.
//!
//! Every search evaluates the model through a [`Tape`] compiled once per
//! [`TileSearcher`], with the tile symbols as its inputs. All three
//! strategies run sequentially in grid order: the service already runs one
//! search per worker thread, so a fan-out inside a search would only
//! compete with its neighbours for the same cores.

use sdlo_core::{MissModel, ModelError, StackDistance, Tape, TapeEval};
use sdlo_ir::Bindings;
use sdlo_symbolic::Sym;
use std::collections::BTreeSet;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One evaluated tile tuple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evaluation {
    /// Tile sizes, in `tile_syms` order.
    pub tiles: Vec<u64>,
    /// Predicted misses for the configured cache.
    pub misses: u64,
}

/// Wall-clock and work limits for one search.
///
/// The default is unlimited. A limited budget makes the search *cooperative*:
/// it checks a [`CancelToken`] before each model evaluation, stops once the
/// deadline passes or the evaluation cap is hit, and returns a partial
/// [`SearchOutcome`] with `completed: false` and the best tuple found so
/// far.
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchBudget {
    /// Hard deadline; no new evaluation starts at or after it.
    pub deadline: Option<Instant>,
    /// Maximum number of model evaluations (miss counts plus stack-distance
    /// evaluations).
    pub max_evaluations: Option<usize>,
}

impl SearchBudget {
    /// No limits: the search always runs to completion.
    pub fn unlimited() -> Self {
        SearchBudget::default()
    }

    /// Deadline `d` from now, no evaluation cap.
    pub fn deadline_in(d: Duration) -> Self {
        SearchBudget {
            deadline: Some(Instant::now() + d),
            max_evaluations: None,
        }
    }

    /// At most `n` model evaluations, no deadline.
    pub fn max_evals(n: usize) -> Self {
        SearchBudget {
            deadline: None,
            max_evaluations: Some(n),
        }
    }

    /// Whether any limit is set. Limited searches pre-pay one *seed*
    /// evaluation (the largest candidate tuple) so even a fully exhausted
    /// budget yields a well-formed best-so-far.
    pub fn is_limited(&self) -> bool {
        self.deadline.is_some() || self.max_evaluations.is_some()
    }
}

/// Cooperative cancellation for one search: one relaxed flag load plus
/// (when a deadline is set) one monotonic clock read per evaluation.
/// Checked *between* evaluations — an in-flight model evaluation always
/// finishes, so cancellation latency is one evaluation.
#[derive(Debug)]
pub struct CancelToken {
    deadline: Option<Instant>,
    max_evaluations: usize,
    evaluations: AtomicUsize,
    cancelled: AtomicBool,
}

impl CancelToken {
    pub fn new(budget: &SearchBudget) -> Self {
        CancelToken {
            deadline: budget.deadline,
            max_evaluations: budget.max_evaluations.unwrap_or(usize::MAX),
            evaluations: AtomicUsize::new(0),
            cancelled: AtomicBool::new(false),
        }
    }

    /// Claim one evaluation. Returns `false` — and flags the search
    /// cancelled — once the deadline has passed or the evaluation cap is
    /// reached; the caller must then skip the evaluation.
    pub fn admit(&self) -> bool {
        if self.cancelled.load(Ordering::Relaxed) {
            return false;
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                self.cancel();
                return false;
            }
        }
        if self.evaluations.fetch_add(1, Ordering::Relaxed) >= self.max_evaluations {
            self.cancel();
            return false;
        }
        true
    }

    /// Charge one evaluation without the budget check (the seed evaluation
    /// that guarantees a best-so-far under an exhausted budget).
    fn charge(&self) {
        self.evaluations.fetch_add(1, Ordering::Relaxed);
    }

    /// Flag the search cancelled; subsequent [`admit`](Self::admit) calls
    /// return `false` immediately.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// Evaluations performed so far (clamped to the cap: failed claims
    /// overshoot the counter).
    pub fn evaluations(&self) -> usize {
        self.evaluations
            .load(Ordering::Relaxed)
            .min(self.max_evaluations)
    }
}

/// Outcome of a search.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The best tile tuple found.
    pub best: Evaluation,
    /// Number of model evaluations performed (the pruning metric).
    pub evaluations: usize,
    /// The frontier tuples the pruned search considered promising.
    pub frontier: Vec<Evaluation>,
    /// `false` when the search was cut short by its [`SearchBudget`]; `best`
    /// is then the best tuple evaluated before cancellation.
    pub completed: bool,
    /// Wall time of the search.
    pub wall_micros: u64,
}

/// Configuration of the search space.
#[derive(Debug, Clone)]
pub struct SearchSpace {
    /// Tile-size symbols, e.g. `["Ti","Tj","Tm","Tn"]`.
    pub tile_syms: Vec<String>,
    /// Inclusive upper bound per dimension (usually the loop bound).
    pub max: Vec<u64>,
    /// Smallest tile considered.
    pub min: u64,
}

impl SearchSpace {
    /// Power-of-two candidate values for dimension `d`, ascending from
    /// `min` (powers of two keep tiles dividing the power-of-two bounds the
    /// paper uses). The search grid is their product, in lexicographic
    /// order.
    pub fn candidates(&self, d: usize) -> Vec<u64> {
        let mut v = Vec::new();
        let mut x = Some(self.min.max(1));
        while let Some(t) = x.filter(|t| *t <= self.max[d]) {
            v.push(t);
            x = t.checked_mul(2);
        }
        v
    }

    /// Every tile tuple of the grid, in the order the searches visit them.
    pub fn points(&self) -> Vec<Vec<u64>> {
        let grid = Grid::new(self);
        let mut tiles = vec![0; self.max.len()];
        let mut inputs = vec![0; tiles.len()];
        (0..grid.len)
            .map(|idx| {
                grid.point(idx, &mut tiles, &mut inputs);
                tiles.clone()
            })
            .collect()
    }
}

/// The candidate grid in grid order: lexicographic, the last dimension
/// varying fastest. Points are addressed by index.
struct Grid {
    candidates: Vec<Vec<u64>>,
    /// Index distance between neighbours along each dimension.
    strides: Vec<usize>,
    len: usize,
}

impl Grid {
    fn new(space: &SearchSpace) -> Grid {
        let candidates: Vec<Vec<u64>> = (0..space.tile_syms.len())
            .map(|d| space.candidates(d))
            .collect();
        let mut strides = vec![1; candidates.len()];
        for d in (1..candidates.len()).rev() {
            strides[d - 1] = strides[d] * candidates[d].len();
        }
        let len = candidates.iter().map(Vec::len).product();
        Grid {
            candidates,
            strides,
            len,
        }
    }

    /// The tiles of point `idx`, as tile sizes and as tape inputs.
    fn point(&self, idx: usize, tiles: &mut [u64], inputs: &mut [i128]) {
        for (d, c) in self.candidates.iter().enumerate() {
            tiles[d] = c[(idx / self.strides[d]) % c.len()];
            inputs[d] = tiles[d].into();
        }
    }

    /// The points one candidate larger than `idx` along each dimension that
    /// can still grow.
    fn grown(&self, idx: usize) -> impl Iterator<Item = usize> + '_ {
        self.candidates
            .iter()
            .enumerate()
            .filter_map(move |(d, c)| {
                let k = (idx / self.strides[d]) % c.len();
                (k + 1 < c.len()).then(|| idx + self.strides[d])
            })
    }
}

/// Preference order: fewer misses wins; ties break toward the larger tile
/// volume (larger tiles have fewer inter-tile reuses and remain robust when
/// counts are approximate), then lexicographically for determinism.
fn better(candidate: &Evaluation, incumbent: &Evaluation) -> bool {
    let vol = |e: &Evaluation| e.tiles.iter().product::<u64>();
    (
        candidate.misses,
        std::cmp::Reverse(vol(candidate)),
        &candidate.tiles,
    ) < (
        incumbent.misses,
        std::cmp::Reverse(vol(incumbent)),
        &incumbent.tiles,
    )
}

/// Tile-size searcher over a [`MissModel`].
pub struct TileSearcher<'a> {
    /// The model with the tile symbols as inputs and everything else bound.
    tape: Tape,
    cache_size: u64,
    space: SearchSpace,
    model: PhantomData<&'a MissModel>,
}

impl<'a> TileSearcher<'a> {
    /// Create a searcher. `base` must bind every free symbol except the
    /// tile symbols; a tile symbol bound in `base` is overridden by the
    /// searched value.
    ///
    /// # Panics
    ///
    /// If `space.max` does not give one bound per tile symbol, or some
    /// dimension has no candidate (a bound below `space.min`).
    pub fn new(model: &'a MissModel, base: Bindings, cache_size: u64, space: SearchSpace) -> Self {
        assert_eq!(space.tile_syms.len(), space.max.len());
        assert!(
            space.max.iter().all(|m| *m >= space.min.max(1)),
            "every dimension needs a candidate tile"
        );
        let inputs: Vec<Sym> = space.tile_syms.iter().map(Sym::new).collect();
        TileSearcher {
            tape: Tape::compile(model, &inputs, &base),
            cache_size,
            space,
            model: PhantomData,
        }
    }

    fn inputs(tiles: &[u64]) -> Vec<i128> {
        tiles.iter().map(|t| i128::from(*t)).collect()
    }

    /// Predicted misses for a tile tuple, in `tile_syms` order.
    pub fn misses(&self, tiles: &[u64]) -> Result<u64, ModelError> {
        self.tape
            .evaluator()
            .misses(&Self::inputs(tiles), self.cache_size)
    }

    /// Number of distinct stack-distance values at or above the cache size —
    /// the quantity whose *increase* marks a phase boundary (§6).
    pub fn distances_above(&self, tiles: &[u64]) -> Result<usize, ModelError> {
        self.tape
            .evaluator()
            .distances_above(&Self::inputs(tiles), self.cache_size)
    }

    /// The largest candidate tuple (the full power-of-two grid corner). It
    /// is always a frontier point — no dimension can grow — so it is the
    /// natural best-so-far seed for a budget-limited search.
    fn max_tiles(&self) -> Vec<u64> {
        (0..self.space.tile_syms.len())
            .map(|d| {
                *self
                    .space
                    .candidates(d)
                    .last()
                    .expect("non-empty candidate set")
            })
            .collect()
    }

    /// Pre-pay one evaluation of the largest tuple so a fully exhausted
    /// budget still yields a well-formed best-so-far. Only limited budgets
    /// pay this; unlimited searches keep their historical evaluation counts.
    fn seed_evaluation(
        &self,
        budget: &SearchBudget,
        token: &CancelToken,
        eval: &mut TapeEval<'_>,
    ) -> Result<Option<Evaluation>, ModelError> {
        if !budget.is_limited() {
            return Ok(None);
        }
        token.charge();
        let tiles = self.max_tiles();
        let misses = eval.misses(&Self::inputs(&tiles), self.cache_size)?;
        Ok(Some(Evaluation { tiles, misses }))
    }

    /// Exhaustive baseline: a full miss-count evaluation at every grid
    /// point.
    ///
    /// # Panics
    ///
    /// If the model fails to evaluate; [`exhaustive_with`](Self::exhaustive_with)
    /// returns the error instead.
    pub fn exhaustive(&self) -> SearchOutcome {
        self.exhaustive_with(&SearchBudget::unlimited())
            .expect("model evaluation")
    }

    /// [`exhaustive`](Self::exhaustive) under a [`SearchBudget`]. Returns
    /// the first evaluation error in grid order.
    pub fn exhaustive_with(&self, budget: &SearchBudget) -> Result<SearchOutcome, ModelError> {
        let started = Instant::now();
        let span = sdlo_trace::span("tilesearch.exhaustive");
        span.attr("cache_size", self.cache_size);
        span.attr("dims", self.space.tile_syms.len());
        let token = CancelToken::new(budget);
        let mut eval = self.tape.evaluator();
        let mut best = self.seed_evaluation(budget, &token, &mut eval)?;

        let grid = Grid::new(&self.space);
        let mut tiles = vec![0; self.space.tile_syms.len()];
        let mut inputs = vec![0; tiles.len()];
        let mut evaluated = 0u64;
        for idx in 0..grid.len {
            if !token.admit() {
                break;
            }
            grid.point(idx, &mut tiles, &mut inputs);
            let e = Evaluation {
                misses: eval.misses(&inputs, self.cache_size)?,
                tiles: tiles.clone(),
            };
            evaluated += 1;
            if best.as_ref().is_none_or(|b| better(&e, b)) {
                best = Some(e);
            }
        }
        span.add("grid_points", evaluated);
        span.add("miss_evals", evaluated);
        if token.is_cancelled() {
            span.add("search.cancelled", 1);
        }
        Ok(SearchOutcome {
            best: best.expect("non-empty space"),
            evaluations: token.evaluations(),
            frontier: Vec::new(),
            completed: !token.is_cancelled(),
            wall_micros: started.elapsed().as_micros() as u64,
        })
    }

    /// The paper's pruned search: keep only *frontier* tuples — tuples
    /// where no dimension can grow one grid step without an additional
    /// stack distance crossing the cache size — and evaluate miss counts
    /// only for those.
    ///
    /// # Panics
    ///
    /// If the model fails to evaluate; [`pruned_with`](Self::pruned_with)
    /// returns the error instead.
    pub fn pruned(&self) -> SearchOutcome {
        self.pruned_with(&SearchBudget::unlimited())
            .expect("model evaluation")
    }

    /// [`pruned`](Self::pruned) under a [`SearchBudget`]. Phase 1 evaluates
    /// the stack distances once per grid point; phase 2 classifies each
    /// point against its grown neighbours and evaluates miss counts on the
    /// frontier only, so a count that fails off the frontier never fails
    /// the search. Returns the first evaluation error in grid order.
    pub fn pruned_with(&self, budget: &SearchBudget) -> Result<SearchOutcome, ModelError> {
        let started = Instant::now();
        let span = sdlo_trace::span("tilesearch.pruned");
        span.attr("cache_size", self.cache_size);
        span.attr("dims", self.space.tile_syms.len());
        let token = CancelToken::new(budget);
        let mut eval = self.tape.evaluator();
        let mut best = self.seed_evaluation(budget, &token, &mut eval)?;

        // Phase 1: distinct stack distances at or above the cache size, one
        // distances-only evaluation per grid point.
        let grid = Grid::new(&self.space);
        let mut tiles = vec![0; self.space.tile_syms.len()];
        let mut inputs = vec![0; tiles.len()];
        let mut above = Vec::with_capacity(grid.len);
        for idx in 0..grid.len {
            if !token.admit() {
                break;
            }
            grid.point(idx, &mut tiles, &mut inputs);
            above.push(eval.distances_above(&inputs, self.cache_size)?);
        }
        let grid_points = above.len();

        // Phase 2: a point is on the frontier when growing it along each
        // dimension that can grow adds a distance at or above the cache
        // size; a grown point with no more such distances has no additional
        // misses and strictly fewer inter-tile reuses. A cut-short phase 1
        // classifies nothing (its budget admits no miss evaluation anyway).
        let frontier_points: Vec<usize> = if grid_points == grid.len {
            (0..grid.len)
                .filter(|&idx| grid.grown(idx).all(|g| above[g] > above[idx]))
                .collect()
        } else {
            Vec::new()
        };
        let mut frontier = Vec::new();
        for &idx in &frontier_points {
            if !token.admit() {
                break;
            }
            grid.point(idx, &mut tiles, &mut inputs);
            let e = Evaluation {
                misses: eval.misses(&inputs, self.cache_size)?,
                tiles: tiles.clone(),
            };
            if best.as_ref().is_none_or(|b| better(&e, b)) {
                best = Some(e.clone());
            }
            frontier.push(e);
        }
        span.add("grid_points", grid_points as u64);
        span.add("boundary_probes", grid_points as u64);
        span.add("frontier_kept", frontier_points.len() as u64);
        span.add("pruned", (grid_points - frontier_points.len()) as u64);
        span.add("miss_evals", frontier.len() as u64);
        if token.is_cancelled() {
            span.add("search.cancelled", 1);
        }
        Ok(SearchOutcome {
            best: best.expect("frontier non-empty: the max tile is always maximal"),
            evaluations: token.evaluations(),
            frontier,
            completed: !token.is_cancelled(),
            wall_micros: started.elapsed().as_micros() as u64,
        })
    }

    /// §6 / Table 4: search **without knowing the loop bounds**, using only
    /// the stack-distance expressions that do not involve the given
    /// loop-bound symbols. A stack distance that mentions a bound scales
    /// with the problem size, so for large (unknown) bounds it certainly
    /// exceeds the cache — those components are treated as always missing.
    /// Loop bounds are set to `nominal` (a large representative size) only
    /// for instance counting.
    ///
    /// # Panics
    ///
    /// If the model fails to evaluate; [`bounds_free_with`](Self::bounds_free_with)
    /// returns the error instead.
    pub fn bounds_free(
        model: &MissModel,
        bound_syms: &[&str],
        nominal: i128,
        cache_size: u64,
        space: SearchSpace,
    ) -> SearchOutcome {
        Self::bounds_free_with(
            model,
            bound_syms,
            nominal,
            cache_size,
            space,
            &SearchBudget::unlimited(),
        )
        .expect("model evaluation")
    }

    /// [`bounds_free`](Self::bounds_free) under a [`SearchBudget`]; the
    /// budget governs the delegated pruned search.
    pub fn bounds_free_with(
        model: &MissModel,
        bound_syms: &[&str],
        nominal: i128,
        cache_size: u64,
        space: SearchSpace,
        budget: &SearchBudget,
    ) -> Result<SearchOutcome, ModelError> {
        let span = sdlo_trace::span("tilesearch.bounds_free");
        span.attr("nominal", nominal as i64);
        span.attr("cache_size", cache_size);
        let bounds: BTreeSet<Sym> = bound_syms.iter().map(|s| Sym::new(*s)).collect();
        let mentions = |e: &sdlo_symbolic::Expr| e.vars().iter().any(|v| bounds.contains(v));
        let mut bound_dependent_dropped = 0u64;
        let components = model
            .components()
            .iter()
            .map(|c| {
                let bound_dependent = match &c.distance {
                    StackDistance::Infinite => false,
                    StackDistance::Constant(e) => mentions(e),
                    StackDistance::Varying { lo, hi } => mentions(lo) || mentions(hi),
                };
                if bound_dependent {
                    bound_dependent_dropped += 1;
                    let mut c2 = c.clone();
                    c2.distance = StackDistance::Infinite;
                    c2
                } else {
                    c.clone()
                }
            })
            .collect();
        span.add("bound_dependent_dropped", bound_dependent_dropped);
        let filtered = MissModel::from_components(components);
        let mut base = Bindings::new();
        for s in bound_syms {
            base.set(*s, nominal);
        }
        let searcher = TileSearcher::new(&filtered, base, cache_size, space);
        searcher.pruned_with(budget)
    }

    /// Miss counts along one tile dimension with the others fixed — the §6
    /// four-phase curve.
    pub fn miss_curve(&self, dim: usize, fixed: &[u64]) -> Result<Vec<(u64, u64)>, ModelError> {
        self.space
            .candidates(dim)
            .into_iter()
            .map(|v| {
                let mut tiles = fixed.to_vec();
                tiles[dim] = v;
                Ok((v, self.misses(&tiles)?))
            })
            .collect()
    }
}

/// Outcome of an order-aware search: the best *legal* loop order of one
/// statement's perfect segment together with the tile search run on it.
#[derive(Debug, Clone)]
pub struct OrderSearchOutcome {
    /// The winning loop order (outermost first).
    pub best_order: Vec<Sym>,
    /// The tile-search outcome for the winning order.
    pub outcome: SearchOutcome,
    /// Permutations enumerated (legal + illegal).
    pub orders_considered: usize,
    /// Permutations rejected up front by the dependence analysis — these
    /// never cost a model build or a miss evaluation.
    pub pruned_illegal: usize,
}

/// All permutations of `syms`, in lexicographic generation order.
fn permutations(syms: &[Sym]) -> Vec<Vec<Sym>> {
    if syms.len() <= 1 {
        return vec![syms.to_vec()];
    }
    let mut out = Vec::new();
    for (i, head) in syms.iter().enumerate() {
        let mut rest: Vec<Sym> = syms.to_vec();
        rest.remove(i);
        for mut tail in permutations(&rest) {
            tail.insert(0, head.clone());
            out.push(tail);
        }
    }
    out
}

/// Search every **legal** loop order of `stmt`'s perfect segment: orders
/// the dependence analysis proves illegal are rejected before any model is
/// built (counted in the `search.pruned_illegal` trace attribute), each
/// surviving order is applied with [`sdlo_ir::apply_permute`] and given a
/// full pruned tile search, and the best (order, tiles) pair wins under the
/// tile search's own preference: fewer misses, then the larger tile volume,
/// then lexicographic order.
///
/// `base` must bind every free symbol of the program except the tile
/// symbols; an empty `space.tile_syms` degenerates to comparing the orders
/// themselves (one miss evaluation each). Fails with the
/// [`sdlo_ir::ApplyError`] of an order that cannot be applied or the
/// [`ModelError`] of a model that fails to evaluate.
pub fn search_orders(
    program: &sdlo_ir::Program,
    stmt: sdlo_ir::StmtId,
    base: &Bindings,
    cache_size: u64,
    space: &SearchSpace,
    budget: &SearchBudget,
) -> Result<OrderSearchOutcome, Box<dyn std::error::Error + Send + Sync>> {
    let span = sdlo_trace::span("tilesearch.orders");
    span.attr("cache_size", cache_size);
    let graph = sdlo_deps::analyze(program);
    let segment =
        sdlo_ir::perfect_segment(program, stmt).ok_or(sdlo_ir::ApplyError::NoSuchStmt(stmt))?;
    let orders = permutations(&segment);
    let orders_considered = orders.len();

    let mut pruned_illegal = 0usize;
    let mut legal = Vec::new();
    for order in orders {
        match graph.permutation_legality(program, stmt, &order) {
            Ok(sdlo_deps::Legality::Illegal) => pruned_illegal += 1,
            Ok(_) => legal.push(order),
            Err(_) => pruned_illegal += 1,
        }
    }
    span.add("orders", orders_considered as u64);
    span.add("search.pruned_illegal", pruned_illegal as u64);

    let mut best: Option<(Vec<Sym>, SearchOutcome)> = None;
    for order in legal {
        let permuted = sdlo_ir::apply_permute(program, stmt, &order)?;
        let model = MissModel::build(&permuted);
        let searcher = TileSearcher::new(&model, base.clone(), cache_size, space.clone());
        let outcome = searcher.pruned_with(budget)?;
        let wins = match &best {
            None => true,
            Some((_, incumbent)) => better(&outcome.best, &incumbent.best),
        };
        if wins {
            best = Some((order, outcome));
        }
    }
    let (best_order, outcome) = best.expect("the identity order is always legal");
    Ok(OrderSearchOutcome {
        best_order,
        outcome,
        orders_considered,
        pruned_illegal,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdlo_ir::programs;

    fn searcher_matmul(model: &MissModel, n: i128, cs: u64) -> TileSearcher<'_> {
        let base = Bindings::new().with("Ni", n).with("Nj", n).with("Nk", n);
        TileSearcher::new(
            model,
            base,
            cs,
            SearchSpace {
                tile_syms: vec!["Ti".into(), "Tj".into(), "Tk".into()],
                max: vec![n as u64, n as u64, n as u64],
                min: 4,
            },
        )
    }

    #[test]
    fn pruned_matches_exhaustive_best() {
        let model = MissModel::build(&programs::tiled_matmul());
        for cs in [2048u64, 8192] {
            let s = searcher_matmul(&model, 256, cs);
            let ex = s.exhaustive();
            let pr = s.pruned();
            assert_eq!(
                pr.best.misses, ex.best.misses,
                "cs={cs}: pruned best {:?} vs exhaustive {:?}",
                pr.best, ex.best
            );
        }
    }

    #[test]
    fn pruned_search_evaluates_fewer_miss_counts() {
        let model = MissModel::build(&programs::tiled_matmul());
        let s = searcher_matmul(&model, 512, 8192);
        let pr = s.pruned();
        let grid = 8usize.pow(3); // candidates 4..=512 per dim
        assert!(
            pr.frontier.len() * 2 < grid,
            "{} frontier tuples of {grid} grid points",
            pr.frontier.len()
        );
    }

    #[test]
    fn best_tile_beats_untiled() {
        let model = MissModel::build(&programs::tiled_matmul());
        let s = searcher_matmul(&model, 256, 2048);
        let best = s.pruned().best;
        let full = s.misses(&[256, 256, 256]).unwrap();
        assert!(best.misses < full, "best {best:?} vs untiled {full}");
    }

    #[test]
    fn miss_curve_shows_jump_at_phase_boundary() {
        let model = MissModel::build(&programs::tiled_matmul());
        let s = searcher_matmul(&model, 256, 2048);
        // With Tj = Tk = 8 the kT-carried stack distance of A crosses the
        // 2048-element cache between Ti = 64 and Ti = 128.
        let curve = s.miss_curve(0, &[4, 8, 8]).unwrap();
        let ups = curve.windows(2).filter(|w| w[1].1 > w[0].1).count();
        let downs = curve.windows(2).filter(|w| w[1].1 < w[0].1).count();
        assert!(ups >= 1, "expected at least one jump: {curve:?}");
        assert!(downs >= 1, "expected decreasing stretches: {curve:?}");
    }

    #[test]
    fn bounds_free_matches_known_bounds_for_large_n() {
        // Table 4's headline property, on the paper's workload: the tile
        // tuple chosen without knowing the loop bounds equals the
        // known-bounds choice once bounds are large, and both are invariant
        // in the bound.
        let model = MissModel::build(&programs::tiled_two_index());
        let space = SearchSpace {
            tile_syms: vec!["Ti".into(), "Tj".into(), "Tm".into(), "Tn".into()],
            max: vec![512, 512, 512, 512],
            min: 4,
        };
        let free = TileSearcher::bounds_free(
            &model,
            &["Ni", "Nj", "Nm", "Nn"],
            1 << 14,
            8192,
            space.clone(),
        );
        for n in [256i128, 512, 1024] {
            let base = Bindings::new()
                .with("Ni", n)
                .with("Nj", n)
                .with("Nm", n)
                .with("Nn", n);
            let known = TileSearcher::new(&model, base, 8192, space.clone()).pruned();
            assert_eq!(
                free.best.tiles, known.best.tiles,
                "N={n}: bounds-free {:?} vs known {:?}",
                free.best, known.best
            );
        }
    }

    #[test]
    fn each_grid_point_costs_one_distance_evaluation() {
        // Phase 1 evaluates the stack distances once per grid point; only
        // frontier points add a miss evaluation.
        let model = MissModel::build(&programs::tiled_two_index());
        let base = Bindings::new()
            .with("Ni", 256)
            .with("Nj", 256)
            .with("Nm", 256)
            .with("Nn", 256);
        let s = TileSearcher::new(
            &model,
            base,
            2048,
            SearchSpace {
                tile_syms: vec!["Ti".into(), "Tj".into(), "Tm".into(), "Tn".into()],
                max: vec![256; 4],
                min: 4,
            },
        );
        let pr = s.pruned();
        assert_eq!(pr.evaluations, 7usize.pow(4) + pr.frontier.len());
        assert_eq!(pr.evaluations, 2611);
        assert_eq!(s.exhaustive().evaluations, 7usize.pow(4));
    }

    #[test]
    fn pruned_is_deterministic_across_runs() {
        let model = MissModel::build(&programs::tiled_matmul());
        let s = searcher_matmul(&model, 256, 8192);
        let first = s.pruned();
        assert!(first.completed);
        for _ in 0..9 {
            let again = s.pruned();
            assert_eq!(again.best, first.best);
            assert_eq!(again.frontier, first.frontier);
        }
    }

    #[test]
    fn expired_deadline_returns_partial_outcome() {
        let model = MissModel::build(&programs::tiled_matmul());
        let s = searcher_matmul(&model, 256, 8192);
        let budget = SearchBudget::deadline_in(Duration::ZERO);
        for out in [s.pruned_with(&budget), s.exhaustive_with(&budget)] {
            let out = out.unwrap();
            assert!(!out.completed);
            // Only the pre-paid seed ran: best is the largest tuple.
            assert_eq!(out.best.tiles, vec![256, 256, 256]);
            assert_eq!(out.evaluations, 1);
        }
    }

    #[test]
    fn evaluation_cap_bounds_the_search() {
        let model = MissModel::build(&programs::tiled_matmul());
        let s = searcher_matmul(&model, 512, 8192);
        let capped = s.pruned_with(&SearchBudget::max_evals(5)).unwrap();
        assert!(!capped.completed);
        assert!(capped.evaluations <= 5, "{}", capped.evaluations);
        assert!(!capped.best.tiles.is_empty());

        // A generous cap changes nothing but the pre-paid seed evaluation.
        let full = s.pruned();
        let roomy = s.pruned_with(&SearchBudget::max_evals(1_000_000)).unwrap();
        assert!(roomy.completed);
        assert_eq!(roomy.best, full.best);
        assert_eq!(roomy.frontier, full.frontier);
        assert_eq!(roomy.evaluations, full.evaluations + 1);
    }

    #[test]
    fn searcher_and_model_are_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<MissModel>();
        check::<TileSearcher<'static>>();
        check::<SearchBudget>();
        check::<CancelToken>();
        check::<SearchOutcome>();
    }

    #[test]
    fn order_search_prunes_illegal_orders_up_front() {
        // two_index_fused S0 runs under (i, n); interchanging to (n, i)
        // reverses the scalar accumulator's flow dependence, so exactly one
        // of the two orders is rejected before any model is built.
        let p = programs::two_index_fused();
        let base = Bindings::new()
            .with("Ni", 32)
            .with("Nj", 32)
            .with("Nm", 32)
            .with("Nn", 32);
        let space = SearchSpace {
            tile_syms: vec![],
            max: vec![],
            min: 1,
        };
        let out = super::search_orders(
            &p,
            sdlo_ir::StmtId(0),
            &base,
            4096,
            &space,
            &SearchBudget::unlimited(),
        )
        .unwrap();
        assert_eq!(out.orders_considered, 2);
        assert_eq!(out.pruned_illegal, 1);
        assert_eq!(out.best_order, vec![Sym::new("i"), Sym::new("n")]);
    }

    #[test]
    fn order_search_considers_all_matmul_orders() {
        // matmul is fully permutable: all 3! orders are legal, none pruned,
        // and the winner beats (or ties) the identity order.
        let p = programs::matmul();
        let base = Bindings::new().with("Ni", 64).with("Nj", 64).with("Nk", 64);
        let space = SearchSpace {
            tile_syms: vec![],
            max: vec![],
            min: 1,
        };
        let out = super::search_orders(
            &p,
            sdlo_ir::StmtId(0),
            &base,
            2048,
            &space,
            &SearchBudget::unlimited(),
        )
        .unwrap();
        assert_eq!(out.orders_considered, 6);
        assert_eq!(out.pruned_illegal, 0);
        let identity = {
            let model = MissModel::build(&p);
            TileSearcher::new(&model, base, 2048, space).pruned().best
        };
        assert!(out.outcome.best.misses <= identity.misses);
        // Deterministic across runs.
        let again = super::search_orders(
            &p,
            sdlo_ir::StmtId(0),
            &Bindings::new().with("Ni", 64).with("Nj", 64).with("Nk", 64),
            2048,
            &SearchSpace {
                tile_syms: vec![],
                max: vec![],
                min: 1,
            },
            &SearchBudget::unlimited(),
        )
        .unwrap();
        assert_eq!(again.best_order, out.best_order);
        assert_eq!(again.outcome.best, out.outcome.best);
    }

    #[test]
    fn tiny_bounds_pick_whole_problem_tiles() {
        // Table 4's last rows: when everything fits in cache, the best tile
        // is the full loop bound (no tiling needed).
        let model = MissModel::build(&programs::tiled_matmul());
        let n = 32i128; // footprint 3·32² = 3072 ≤ 8192
        let s = searcher_matmul(&model, n, 8192);
        let best = s.pruned().best;
        assert_eq!(best.tiles, vec![32, 32, 32], "{best:?}");
    }
}
