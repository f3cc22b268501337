//! Iteration-space partitioning (paper §5.1, Fig. 3) and per-component
//! symbolic stack distances (§5.2, Figs. 4–5).
//!
//! For every array reference, its instances are partitioned into
//! **components** such that all instances of a component have the same
//! incoming dependence (= previous access to the same element):
//!
//! * **Carried(ℓ)** — the previous access is one iteration of the
//!   non-appearing loop ℓ earlier (innermost non-appearing loop whose value
//!   exceeds 1; deeper non-appearing loops are at 1 — wrap-around).
//! * **CrossStmt** — every non-appearing loop below some sequence level is
//!   at 1 and an earlier sibling branch at that level references the array:
//!   the previous access comes from that branch (imperfectly nested reuse).
//! * **Compulsory** — no previous access exists (stack distance ∞).
//!
//! The stack distance of a component is the total number of distinct
//! elements accessed in the reuse span, summed over all arrays:
//! whole-subtree traversals are counted exactly ([`crate::extent`]); the
//! partial suffix/prefix of the source/target branches contribute terms
//! linear in the position of the reuse inside the branch, yielding the
//! paper's *non-constant* stack distances (reported as a [`StackDistance::Varying`]
//! interval and resolved by linear interpolation, exactly like the paper's
//! partial-miss formula in §5).

use crate::extent::{seq_costs, subtree_costs, CostMap};
use sdlo_ir::{ArrayId, ArrayRef, Expr, LoopNode, Node, Program, Stmt, StmtId, Sym};

/// Symbolic stack distance of a component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StackDistance {
    /// No incoming dependence — always a miss.
    Infinite,
    /// The same distance for every instance of the component.
    Constant(Expr),
    /// Distance varies linearly across the component between two (unordered)
    /// endpoint expressions.
    Varying {
        /// Distance at one extreme of the reuse position.
        lo: Expr,
        /// Distance at the other extreme.
        hi: Expr,
    },
}

impl std::fmt::Display for StackDistance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StackDistance::Infinite => write!(f, "∞"),
            StackDistance::Constant(e) => write!(f, "{e}"),
            StackDistance::Varying { lo, hi } => write!(f, "[{lo} .. {hi}]"),
        }
    }
}

/// What kind of reuse feeds a component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ComponentKind {
    /// First accesses — no reuse.
    Compulsory,
    /// Reuse carried by a non-appearing loop (same statement or wrap-around
    /// to the last touching statement of the loop body).
    Carried {
        /// The carrying loop's index variable.
        loop_index: Sym,
        /// The statement supplying the previous access.
        source_stmt: StmtId,
    },
    /// Reuse from an earlier sibling branch of an imperfect nest.
    CrossStmt {
        /// The statement supplying the previous access.
        source_stmt: StmtId,
    },
}

/// One partition of a reference's instances.
#[derive(Debug, Clone)]
pub struct Component {
    /// Array being reused.
    pub array: ArrayId,
    /// Statement containing the target reference.
    pub stmt: StmtId,
    /// Index of the reference within the statement.
    pub ref_idx: usize,
    /// Reuse kind.
    pub kind: ComponentKind,
    /// Number of reference instances in the component (symbolic).
    pub count: Expr,
    /// Stack distance (symbolic).
    pub distance: StackDistance,
}

/// One level of a statement's position in the loop tree: the sibling
/// sequence, the statement's branch position within it, and the loop owning
/// the sequence (`None` at the program root).
struct Level<'p> {
    owner: Option<&'p LoopNode>,
    seq: &'p [Node],
    pos: usize,
}

fn stmt_levels<'p>(program: &'p Program, stmt: StmtId) -> Vec<Level<'p>> {
    fn walk<'p>(
        seq: &'p [Node],
        owner: Option<&'p LoopNode>,
        stmt: StmtId,
        acc: &mut Vec<Level<'p>>,
    ) -> bool {
        for (pos, child) in seq.iter().enumerate() {
            acc.push(Level { owner, seq, pos });
            match child {
                Node::Stmt(s) if s.id == stmt => return true,
                Node::Stmt(_) => {}
                Node::Loop(l) => {
                    if walk(&l.body, Some(l), stmt, acc) {
                        return true;
                    }
                }
            }
            acc.pop();
        }
        false
    }
    let mut acc = Vec::new();
    assert!(
        walk(&program.root, None, stmt, &mut acc),
        "statement {stmt:?} not found"
    );
    acc
}

fn subtree_contains(node: &Node, array: ArrayId) -> bool {
    match node {
        Node::Stmt(s) => s.refs.iter().any(|r| r.array == array),
        Node::Loop(l) => l.body.iter().any(|n| subtree_contains(n, array)),
    }
}

/// Rightmost (last in program order) statement referencing `array` inside
/// `node`, with the reference index.
fn rightmost_leaf(node: &Node, array: ArrayId) -> Option<(&Stmt, usize)> {
    match node {
        Node::Stmt(s) => s
            .refs
            .iter()
            .rposition(|r| r.array == array)
            .map(|i| (s, i)),
        Node::Loop(l) => l.body.iter().rev().find_map(|n| rightmost_leaf(n, array)),
    }
}

fn rightmost_leaf_in_seq(seq: &[Node], array: ArrayId) -> Option<(&Stmt, usize)> {
    seq.iter().rev().find_map(|n| rightmost_leaf(n, array))
}

/// A linear boundary contribution: `position · unit_sum + const_sum` where
/// `position` ranges over `1..=trips`.
#[derive(Debug, Clone)]
struct Boundary {
    /// Sum of per-iteration units for arrays whose references involve the
    /// boundary loop (these grow with the position).
    unit_sum: Expr,
    /// Trip count of the boundary loop.
    trips: Expr,
    /// Contribution of arrays not involving the boundary loop plus fully
    /// traversed side subtrees (independent of position).
    const_sum: Expr,
}

impl Boundary {
    fn empty() -> Self {
        Boundary {
            unit_sum: Expr::zero(),
            trips: Expr::one(),
            const_sum: Expr::zero(),
        }
    }
}

/// Compute the boundary (suffix or prefix) contribution of `branch` for a
/// reference to `reused` at statement `stmt`, excluding the reused array
/// itself (its span coverage is accounted for separately).
///
/// `suffix == true` means the span *leaves* the branch at the reference's
/// last access (source side); `false` means it *enters* up to the first
/// access (target side). Both reduce to: find the outermost loop of the
/// branch path that appears in the reference (`ℓout`); arrays referenced
/// inside `ℓout`'s body contribute `position · unit` if they involve `ℓout`,
/// a constant `unit` otherwise; side subtrees above `ℓout` (after the path
/// for a suffix, before it for a prefix) are traversed in full.
fn boundary_costs(
    branch: &Node,
    stmt: StmtId,
    the_ref: &ArrayRef,
    reused: ArrayId,
    suffix: bool,
) -> Boundary {
    // A bare statement branch has no loops inside: no partial traversal.
    if matches!(branch, Node::Stmt(_)) {
        return Boundary::empty();
    }

    // Collect (loop, seq, pos) from the branch root down to `stmt`.
    fn path_into<'p>(
        node: &'p Node,
        stmt: StmtId,
        acc: &mut Vec<(&'p LoopNode, &'p [Node], usize)>,
    ) -> bool {
        match node {
            Node::Stmt(s) => s.id == stmt,
            Node::Loop(l) => {
                for (pos, child) in l.body.iter().enumerate() {
                    acc.push((l, &l.body, pos));
                    if path_into(child, stmt, acc) {
                        return true;
                    }
                    acc.pop();
                }
                false
            }
        }
    }
    let mut path = Vec::new();
    if !path_into(branch, stmt, &mut path) {
        return Boundary::empty();
    }

    // ℓout = outermost loop on the path appearing in the reference.
    let Some(out_level) = path.iter().position(|(l, _, _)| the_ref.appears(&l.index)) else {
        // No appearing loop inside the branch: the reuse position is pinned
        // to the very end (suffix) / start (prefix) — nothing in between.
        return Boundary::empty();
    };
    let (lout, _, _) = path[out_level];

    // Side subtrees above ℓout traversed in full.
    let mut sides = CostMap::default();
    for &(_, seq, pos) in &path[..out_level] {
        let range: &[Node] = if suffix { &seq[pos + 1..] } else { &seq[..pos] };
        for n in range {
            sides.merge(&subtree_costs(n));
        }
    }
    let side_cost = sides.without(reused).total();

    // One iteration of ℓout's body.
    let unit = seq_costs(&lout.body);
    let mut unit_sum = Expr::zero();
    let mut const_sum = side_cost;
    for b in unit.arrays() {
        if b == reused {
            continue;
        }
        let cost = unit.array_cost(b);
        if array_involves(&lout.body, b, &lout.index) {
            unit_sum += cost;
        } else {
            const_sum += cost;
        }
    }
    Boundary {
        unit_sum,
        trips: lout.bound.clone(),
        const_sum,
    }
}

/// Stack distance of a same-branch wrap-around reuse carried by `carrier`
/// over body `seq`, for a typical (interior) instance.
///
/// The wrap span is one full body sweep, *plus*, for arrays referenced in
/// the target's own branch whose subscripts involve the carrier (their
/// elements differ between carrier iterations `x` and `x+1`):
///
/// * if the array also involves the branch's outermost loop ℓ*, its suffix
///   and prefix portions split complementarily along ℓ* except for one
///   shared ℓ* iteration → one extra ℓ*-body unit;
/// * otherwise the array is swept fully on **both** sides of the wrap →
///   one extra full branch extent.
///
/// Boundary instances (first/last ℓ* iteration) fall short of this value by
/// up to one unit; the interior dominates by a factor of the tile size, so
/// the interior value is reported (validated against the simulated
/// stack-distance histogram).
fn wrap_distance(
    seq: &[Node],
    carrier: &LoopNode,
    branch: &Node,
    reused: ArrayId,
) -> StackDistance {
    let mut sd = seq_costs(seq).total();
    let branch_seq = std::slice::from_ref(branch);
    let branch_costs = seq_costs(branch_seq);
    let lstar: Option<&LoopNode> = match branch {
        Node::Loop(l) => Some(l),
        Node::Stmt(_) => None,
    };
    for b in branch_costs.arrays() {
        if b == reused || !array_involves(branch_seq, b, &carrier.index) {
            continue;
        }
        match lstar {
            Some(l) if array_involves(branch_seq, b, &l.index) => {
                sd += seq_costs(&l.body).array_cost(b);
            }
            _ => {
                sd += branch_costs.array_cost(b);
            }
        }
    }
    StackDistance::Constant(sd)
}

/// Whether any reference to `array` within `seq` uses loop index `idx`.
fn array_involves(seq: &[Node], array: ArrayId, idx: &Sym) -> bool {
    fn walk(node: &Node, array: ArrayId, idx: &Sym) -> bool {
        match node {
            Node::Stmt(s) => s.refs.iter().any(|r| r.array == array && r.appears(idx)),
            Node::Loop(l) => l.body.iter().any(|n| walk(n, array, idx)),
        }
    }
    seq.iter().any(|n| walk(n, array, idx))
}

/// Combine base + boundaries into a [`StackDistance`].
fn combine(base: Expr, src: Boundary, tgt: Boundary) -> StackDistance {
    let base = base + src.const_sum.clone() + tgt.const_sum.clone();
    let src_zero = src.unit_sum.is_zero();
    let tgt_zero = tgt.unit_sum.is_zero();
    if src_zero && tgt_zero {
        return StackDistance::Constant(base);
    }
    if src.trips == tgt.trips {
        // Tied positions (the reuse source and target sit at matching
        // offsets): SD(a) = base + a·tgt + (R−a)·src for a ∈ 1..=R.
        let r = src.trips;
        let at_start =
            base.clone() + tgt.unit_sum.clone() + src.unit_sum.clone() * (r.clone() - Expr::one());
        let at_end = base + tgt.unit_sum * r;
        StackDistance::Varying {
            lo: at_start,
            hi: at_end,
        }
    } else {
        // Independent positions: bracket with the corner extremes.
        let min = base.clone() + tgt.unit_sum.clone();
        let max = base + tgt.unit_sum * tgt.trips + src.unit_sum * (src.trips - Expr::one());
        StackDistance::Varying { lo: min, hi: max }
    }
}

/// Deferred stack-distance derivation for one component: everything stage 1
/// (partitioning + classification) learned that stage 2 needs. Splitting the
/// two stages keeps the `model.partition` and `model.stack_distance` trace
/// spans honest — each phase is timed separately.
enum DistanceJob<'p> {
    /// Compulsory component — no previous access.
    Infinite,
    /// Same-branch wrap-around reuse carried by `carrier`.
    Wrap {
        seq: &'p [Node],
        carrier: &'p LoopNode,
        branch_pos: usize,
        array: ArrayId,
    },
    /// Reuse spanning from a source branch to a target branch of `seq`:
    /// sibling reuse when `wraps` is false (`src_pos < tgt_pos`, span is the
    /// contiguous slice), carried wrap-around across branches when true
    /// (span leaves the end of `seq` and re-enters at the front).
    Span {
        seq: &'p [Node],
        src_pos: usize,
        tgt_pos: usize,
        wraps: bool,
        src_stmt: &'p Stmt,
        tgt_stmt_id: StmtId,
        the_ref: &'p ArrayRef,
        array: ArrayId,
    },
}

/// Stage 2: derive the symbolic stack distance for one component.
fn distance_for(job: DistanceJob<'_>) -> StackDistance {
    match job {
        DistanceJob::Infinite => StackDistance::Infinite,
        DistanceJob::Wrap {
            seq,
            carrier,
            branch_pos,
            array,
        } => wrap_distance(seq, carrier, &seq[branch_pos], array),
        DistanceJob::Span {
            seq,
            src_pos,
            tgt_pos,
            wraps,
            src_stmt,
            tgt_stmt_id,
            the_ref,
            array,
        } => {
            // Span: suffix of source branch + full mids + prefix of target
            // branch; the reused array's coverage is its union box over the
            // spanned branches.
            let mut mids = CostMap::default();
            let mut reused_span = CostMap::default();
            if wraps {
                for n in seq[src_pos + 1..].iter().chain(&seq[..tgt_pos]) {
                    mids.merge(&subtree_costs(n));
                }
                for n in seq {
                    reused_span.merge(&subtree_costs(n));
                }
            } else {
                for n in &seq[src_pos + 1..tgt_pos] {
                    mids.merge(&subtree_costs(n));
                }
                for n in &seq[src_pos..=tgt_pos] {
                    reused_span.merge(&subtree_costs(n));
                }
            }
            let base = mids.without(array).total() + reused_span.only(array).total();
            let src_ref = src_stmt
                .refs
                .iter()
                .find(|r| r.array == array)
                .expect("source stmt references array");
            let sb = boundary_costs(&seq[src_pos], src_stmt.id, src_ref, array, true);
            let tb = boundary_costs(&seq[tgt_pos], tgt_stmt_id, the_ref, array, false);
            combine(base, sb, tb)
        }
    }
}

/// Stage 1: partition the instances of reference `ref_idx` of `stmt` into
/// components (kind + symbolic count) and record, per component, the
/// [`DistanceJob`] stage 2 resolves into a stack distance.
fn partition_reference<'p>(
    program: &'p Program,
    stmt: &Stmt,
    ref_idx: usize,
) -> Vec<(Component, DistanceJob<'p>)> {
    let levels = stmt_levels(program, stmt.id);
    let last = levels.last().expect("statement occupies a level");
    let Node::Stmt(tgt_stmt) = &last.seq[last.pos] else {
        unreachable!("the last level addresses the statement itself")
    };
    let the_ref = &tgt_stmt.refs[ref_idx];
    let array = the_ref.array;
    let owners: Vec<Option<&LoopNode>> = levels.iter().map(|l| l.owner).collect();

    let product_of = |range: &dyn Fn(usize, &LoopNode) -> Option<Expr>| -> Expr {
        let mut acc = Expr::one();
        for (k, o) in owners.iter().enumerate() {
            if let Some(l) = o {
                if let Some(f) = range(k, l) {
                    acc *= f;
                }
            }
        }
        acc
    };

    let mut components = Vec::new();
    let mut found_cross = false;

    for k in (0..levels.len()).rev() {
        let level = &levels[k];
        // 1. Nearest earlier sibling branch containing the array.
        if let Some(j) = (0..level.pos)
            .rev()
            .find(|&j| subtree_contains(&level.seq[j], array))
        {
            let (src_stmt, _src_ref) =
                rightmost_leaf(&level.seq[j], array).expect("subtree_contains implies a leaf");
            // Count: enclosing loops of this sequence (levels 0..=k, the
            // level-k owner owns the sequence itself) free, appearing loops
            // below free, non-appearing loops below fixed at 1.
            let count = product_of(&|i, l| {
                if i <= k || the_ref.appears(&l.index) {
                    Some(l.bound.clone())
                } else {
                    None
                }
            });
            components.push((
                Component {
                    array,
                    stmt: stmt.id,
                    ref_idx,
                    kind: ComponentKind::CrossStmt {
                        source_stmt: src_stmt.id,
                    },
                    count,
                    distance: StackDistance::Infinite, // resolved in stage 2
                },
                DistanceJob::Span {
                    seq: level.seq,
                    src_pos: j,
                    tgt_pos: level.pos,
                    wraps: false,
                    src_stmt,
                    tgt_stmt_id: stmt.id,
                    the_ref,
                    array,
                },
            ));
            found_cross = true;
            break;
        }
        // 2. Reuse carried by the owning loop, if it does not appear.
        let Some(owner) = level.owner else { break };
        if the_ref.appears(&owner.index) {
            continue;
        }
        let (src_stmt, _) = rightmost_leaf_in_seq(level.seq, array)
            .expect("the target itself references the array");
        let count = product_of(&|i, l| {
            if i < k {
                Some(l.bound.clone())
            } else if i == k {
                Some(l.bound.clone() - Expr::one())
            } else if the_ref.appears(&l.index) {
                Some(l.bound.clone())
            } else {
                None
            }
        });
        // Source branch is the child of the loop body containing the
        // rightmost leaf; target branch is our own child position.
        let src_pos = level
            .seq
            .iter()
            .rposition(|n| subtree_contains(n, array))
            .expect("rightmost leaf exists");
        let job = if src_pos == level.pos {
            // Same branch: one full body traversal plus boundary extras for
            // carrier-dependent arrays (see `wrap_distance`).
            DistanceJob::Wrap {
                seq: level.seq,
                carrier: owner,
                branch_pos: level.pos,
                array,
            }
        } else {
            debug_assert!(src_pos > level.pos, "source is the rightmost leaf");
            DistanceJob::Span {
                seq: level.seq,
                src_pos,
                tgt_pos: level.pos,
                wraps: true,
                src_stmt,
                tgt_stmt_id: stmt.id,
                the_ref,
                array,
            }
        };
        components.push((
            Component {
                array,
                stmt: stmt.id,
                ref_idx,
                kind: ComponentKind::Carried {
                    loop_index: owner.index.clone(),
                    source_stmt: src_stmt.id,
                },
                count,
                distance: StackDistance::Infinite, // resolved in stage 2
            },
            job,
        ));
    }

    if !found_cross {
        let count = product_of(&|_, l| {
            if the_ref.appears(&l.index) {
                Some(l.bound.clone())
            } else {
                None
            }
        });
        components.push((
            Component {
                array,
                stmt: stmt.id,
                ref_idx,
                kind: ComponentKind::Compulsory,
                count,
                distance: StackDistance::Infinite,
            },
            DistanceJob::Infinite,
        ));
    }
    components
}

/// Enumerate reuse components for **every** reference of the program, in two
/// traced phases: `model.partition` (enumeration + classification, with
/// per-kind cell counters) and `model.stack_distance` (symbolic distance
/// derivation, with term counters).
pub fn all_components(program: &Program) -> Vec<Component> {
    let skeletons = {
        let span = sdlo_trace::span("model.partition");
        let mut skeletons = Vec::new();
        program.for_each_stmt(|s| {
            for ref_idx in 0..s.refs.len() {
                skeletons.extend(partition_reference(program, s, ref_idx));
            }
        });
        span.add("cells", skeletons.len() as u64);
        if span.is_recording() {
            let count_kind = |pred: &dyn Fn(&ComponentKind) -> bool| {
                skeletons.iter().filter(|(c, _)| pred(&c.kind)).count() as u64
            };
            span.add(
                "compulsory",
                count_kind(&|k| matches!(k, ComponentKind::Compulsory)),
            );
            span.add(
                "carried",
                count_kind(&|k| matches!(k, ComponentKind::Carried { .. })),
            );
            span.add(
                "cross_stmt",
                count_kind(&|k| matches!(k, ComponentKind::CrossStmt { .. })),
            );
        }
        skeletons
    };

    let span = sdlo_trace::span("model.stack_distance");
    let mut terms = 0u64;
    let mut varying = 0u64;
    let out: Vec<Component> = skeletons
        .into_iter()
        .map(|(mut c, job)| {
            c.distance = distance_for(job);
            match &c.distance {
                StackDistance::Infinite => {}
                StackDistance::Constant(e) => terms += e.terms().len() as u64,
                StackDistance::Varying { lo, hi } => {
                    varying += 1;
                    terms += (lo.terms().len() + hi.terms().len()) as u64;
                }
            }
            c
        })
        .collect();
    span.add("distance_terms", terms);
    span.add("varying_distances", varying);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdlo_ir::{programs, Bindings};

    fn tmm_bindings() -> Bindings {
        Bindings::new()
            .with("Ni", 512)
            .with("Nj", 512)
            .with("Nk", 512)
            .with("Ti", 64)
            .with("Tj", 64)
            .with("Tk", 64)
    }

    #[test]
    fn tiled_matmul_has_nine_components() {
        // Paper Table 1: nine elementary partitions (three per reference).
        let p = programs::tiled_matmul();
        let comps = all_components(&p);
        assert_eq!(comps.len(), 9);
        let compulsory = comps
            .iter()
            .filter(|c| c.kind == ComponentKind::Compulsory)
            .count();
        assert_eq!(compulsory, 3);
    }

    #[test]
    fn component_counts_partition_instances() {
        // Σ counts per reference == total instances of the reference.
        let p = programs::tiled_matmul();
        let b = tmm_bindings();
        let total: i64 = 512 / 64 * 512 / 64 * (512 / 64) * 64 * 64 * 64;
        let comps = all_components(&p);
        for ref_idx in 0..3 {
            let sum: i64 = comps
                .iter()
                .filter(|c| c.ref_idx == ref_idx)
                .map(|c| c.count.eval(&b).unwrap())
                .sum();
            assert_eq!(sum, total, "ref {ref_idx}");
        }
    }

    #[test]
    fn tiled_matmul_stack_distances_match_paper_table1_shapes() {
        let p = programs::tiled_matmul();
        let b = tmm_bindings();
        let a_id = p.array_by_name("A").unwrap().id;
        let comps = all_components(&p);
        // A (no k): innermost carried by kI has SD 3; carried by kT has
        // SD = Ti·Tj + Tj·Tk + Ti·Tk.
        let a_comps: Vec<_> = comps.iter().filter(|c| c.array == a_id).collect();
        let mut found_inner = false;
        let mut found_tile = false;
        for c in &a_comps {
            if let ComponentKind::Carried { loop_index, .. } = &c.kind {
                let (lo, hi) = match &c.distance {
                    StackDistance::Constant(e) => (e.eval(&b).unwrap(), e.eval(&b).unwrap()),
                    StackDistance::Varying { lo, hi } => {
                        (lo.eval(&b).unwrap(), hi.eval(&b).unwrap())
                    }
                    StackDistance::Infinite => panic!("carried reuse is finite"),
                };
                match loop_index.name() {
                    "kI" => {
                        // One statement instance between consecutive kI
                        // iterations: paper reports 3 (we add ≤2 for the
                        // carrier-dependent operands).
                        assert!((3..=5).contains(&lo), "kI SD = {lo}");
                        found_inner = true;
                    }
                    "kT" => {
                        // One intra-tile sweep Ti·Tj + Tj·Tk + Ti·Tk, plus
                        // B swept on both sides of the wrap (+Tj·Tk) and one
                        // extra kI-row of C (+Tk).
                        assert_eq!(lo, 64 * 64 * 4 + 64);
                        assert_eq!(hi, lo);
                        found_tile = true;
                    }
                    other => panic!("unexpected carrier {other}"),
                }
            }
        }
        assert!(found_inner && found_tile);
    }

    #[test]
    fn two_index_t_has_cross_stmt_components() {
        let p = programs::tiled_two_index();
        let t_id = p.array_by_name("T").unwrap().id;
        let comps = all_components(&p);
        // S2's T reference must have a cross-statement component sourced
        // from S1 (the zeroing), and S3's from S2.
        let s2_cross = comps.iter().find(|c| {
            c.array == t_id
                && c.stmt == StmtId(2)
                && matches!(
                    c.kind,
                    ComponentKind::CrossStmt {
                        source_stmt: StmtId(1)
                    }
                )
        });
        assert!(s2_cross.is_some(), "missing S1→S2 cross component");
        let s3_cross = comps.iter().find(|c| {
            c.array == t_id
                && c.stmt == StmtId(3)
                && matches!(
                    c.kind,
                    ComponentKind::CrossStmt {
                        source_stmt: StmtId(2)
                    }
                )
        });
        assert!(s3_cross.is_some(), "missing S2→S3 cross component");
        // The S1→S2 reuse is the paper's non-constant stack distance
        // example: it must be a Varying interval.
        match &s2_cross.unwrap().distance {
            StackDistance::Varying { .. } => {}
            other => panic!("expected varying distance, got {other}"),
        }
    }

    #[test]
    fn s1_to_s2_varying_matches_paper_expression() {
        // Paper §5: SD ranges between Ti·Tn + Tj·Tn (+Tj) and
        // Ti·Tn + Tj·Tn + Ti·Tj.
        let p = programs::tiled_two_index();
        let t_id = p.array_by_name("T").unwrap().id;
        let comps = all_components(&p);
        let c = comps
            .iter()
            .find(|c| {
                c.array == t_id
                    && c.stmt == StmtId(2)
                    && matches!(c.kind, ComponentKind::CrossStmt { .. })
            })
            .unwrap();
        let b = Bindings::new()
            .with("Ti", 64)
            .with("Tj", 16)
            .with("Tn", 128)
            .with("Ni", 256)
            .with("Nj", 256)
            .with("Nm", 256)
            .with("Nn", 256)
            .with("Tm", 16);
        let StackDistance::Varying { lo, hi } = &c.distance else {
            panic!()
        };
        let (ti, tj, tn) = (64i64, 16, 128);
        let lo_v = lo.eval(&b).unwrap();
        let hi_v = hi.eval(&b).unwrap();
        let (lo_v, hi_v) = (lo_v.min(hi_v), lo_v.max(hi_v));
        // Expected: min ≈ Ti·Tn + Tj·Tn + Tj, max ≈ Ti·Tn + Tj·Tn + Ti·Tj.
        assert_eq!(hi_v, ti * tn + tj * tn + ti * tj);
        assert!(
            (lo_v - (ti * tn + tj * tn)).abs() <= tj + ti,
            "lo = {lo_v}, expected ≈ {}",
            ti * tn + tj * tn
        );
    }

    #[test]
    fn compulsory_only_for_chain_heads() {
        // In the tiled two-index transform, B is zeroed by S0 and updated by
        // S3: S3's B reference must NOT have a compulsory component (its
        // all-ones instances reuse S0's writes), S0's must.
        let p = programs::tiled_two_index();
        let b_id = p.array_by_name("B").unwrap().id;
        let comps = all_components(&p);
        let s0_comp = comps
            .iter()
            .any(|c| c.array == b_id && c.stmt == StmtId(0) && c.kind == ComponentKind::Compulsory);
        let s3_comp = comps
            .iter()
            .any(|c| c.array == b_id && c.stmt == StmtId(3) && c.kind == ComponentKind::Compulsory);
        assert!(s0_comp);
        assert!(!s3_comp);
    }
}
