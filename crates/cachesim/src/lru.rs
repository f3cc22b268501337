//! Exact LRU stack-distance simulation.
//!
//! For a fully associative cache with LRU replacement, an access **hits** in
//! a cache of capacity `C` blocks iff its stack distance — the number of
//! *distinct* blocks touched since the previous access to the same block —
//! is `< C`. Simulating stack distances once therefore yields exact miss
//! counts for *every* capacity at the same time, which is how the paper's
//! "actual misses" columns (SimpleScalar `sim-cache`, fully associative) are
//! reproduced here.
//!
//! ## Algorithm
//!
//! Bennett–Kruskal with slot compaction. Every access takes the next
//! *slot*, a monotonically increasing counter, and a liveness bitmap holds
//! one bit per slot, set while that slot is the most recent access of its
//! block. The stack distance of a reuse whose previous access sits in slot
//! `s₀` is the number of set bits after `s₀`. Slots fill the bitmap one
//! 64-bit word at a time, and a Fenwick tree over the popcounts of the
//! *closed* words (every word before the one the next slot falls in) counts
//! the live slots up to any word. A reuse inside the open tail word so costs
//! one shift and one popcount; any other reuse costs one query and one
//! update on a tree 64× smaller than the slot range.
//!
//! When the slots run out, live slots are compacted to the front: each
//! block's entry in the dense last-slot table is renumbered by its rank,
//! the live bits in earlier words plus those below it in its own word. The
//! slot range stays at least twice the number of live blocks and at least
//! the address space, so compaction is amortized `O(1)` per access.

use crate::fenwick::Fenwick;

/// Result of one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distance {
    /// First-ever access to the block (infinite stack distance — always a
    /// miss; the paper writes ∞).
    Cold,
    /// Reuse with the given exclusive stack distance.
    Finite(u64),
}

const NO_SLOT: u32 = u32::MAX;

/// Histogram of stack distances, queryable for miss counts at any capacity.
#[derive(Debug, Clone, Default)]
pub struct StackDistHistogram {
    /// Cold (compulsory) accesses.
    pub cold: u64,
    /// `counts[d]` = number of reuses at exact distance `d`.
    counts: Vec<u64>,
    total: u64,
}

impl StackDistHistogram {
    /// Record one access.
    #[inline]
    pub fn record(&mut self, d: Distance) {
        self.total += 1;
        match d {
            Distance::Cold => self.cold += 1,
            Distance::Finite(x) => {
                let i = x as usize;
                if i >= self.counts.len() {
                    self.counts.resize(i + 1, 0);
                }
                self.counts[i] += 1;
            }
        }
    }

    /// Total number of accesses recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Misses of a fully associative LRU cache with `capacity` blocks:
    /// cold accesses plus reuses at distance ≥ capacity.
    pub fn misses(&self, capacity: u64) -> u64 {
        let from = (capacity as usize).min(self.counts.len());
        self.cold + self.counts[from..].iter().sum::<u64>()
    }

    /// Hits at the given capacity.
    pub fn hits(&self, capacity: u64) -> u64 {
        self.total - self.misses(capacity)
    }

    /// Miss ratio at the given capacity.
    pub fn miss_ratio(&self, capacity: u64) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.misses(capacity) as f64 / self.total as f64
        }
    }

    /// Iterate `(distance, count)` pairs with nonzero counts in increasing
    /// distance order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, c)| **c != 0)
            .map(|(d, c)| (d as u64, *c))
    }

    /// Largest finite distance observed, if any reuse occurred.
    pub fn max_distance(&self) -> Option<u64> {
        self.counts.iter().rposition(|c| *c != 0).map(|d| d as u64)
    }

    /// The capacities at which the miss count changes — i.e. every distinct
    /// observed distance `d` (capacity `d+1` hits what capacity `d` missed).
    pub fn knee_capacities(&self) -> Vec<u64> {
        self.iter().map(|(d, _)| d + 1).collect()
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &StackDistHistogram) {
        self.cold += other.cold;
        self.total += other.total;
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (d, c) in other.counts.iter().enumerate() {
            self.counts[d] += c;
        }
    }
}

/// Exact LRU stack-distance engine.
///
/// ```
/// use sdlo_cachesim::{Distance, StackDistanceEngine};
/// let mut e = StackDistanceEngine::with_dense_addresses(32);
/// assert_eq!(e.access(10), Distance::Cold);
/// assert_eq!(e.access(20), Distance::Cold);
/// assert_eq!(e.access(10), Distance::Finite(1)); // one distinct block (20) in between
/// ```
#[derive(Debug, Clone)]
pub struct StackDistanceEngine {
    /// Block → slot of its most recent access, or `NO_SLOT`.
    last: Vec<u32>,
    /// Liveness bitmap: bit `s` is set iff slot `s` is some block's most
    /// recent access.
    live: Vec<u64>,
    /// Popcounts of the closed words of `live`: those before
    /// `next_slot / 64`.
    closed: Fenwick,
    next_slot: usize,
    active: u64,
    hist: StackDistHistogram,
}

const INITIAL_SLOTS: usize = 1 << 12;

impl StackDistanceEngine {
    /// Engine for block addresses in `0..address_space`.
    pub fn with_dense_addresses(address_space: u64) -> Self {
        let blocks = usize::try_from(address_space).expect("address space fits in usize");
        let slots = blocks.next_multiple_of(64).max(INITIAL_SLOTS);
        StackDistanceEngine {
            last: vec![NO_SLOT; blocks],
            live: vec![0; slots / 64],
            closed: Fenwick::new(slots / 64),
            next_slot: 0,
            active: 0,
            hist: StackDistHistogram::default(),
        }
    }

    /// Process one access and return its stack distance.
    #[inline]
    pub fn access(&mut self, addr: u64) -> Distance {
        let block = addr as usize;
        let s0 = self.last[block];
        let d = if s0 == NO_SLOT {
            Distance::Cold
        } else {
            let (w, b) = (s0 as usize / 64, s0 % 64);
            // Live slots after s0 in its own word (two shifts, as b + 1 may
            // be 64) ...
            let mut after = u64::from((self.live[w] >> b >> 1).count_ones());
            if w < self.next_slot / 64 {
                // ... plus those in later words: every live slot but the
                // ones in words 0..=w, all of which are closed.
                after += self.active - self.closed.prefix_sum(w);
                self.closed.add(w, -1);
            }
            self.live[w] &= !(1 << b);
            self.active -= 1;
            Distance::Finite(after)
        };
        if self.next_slot == self.live.len() * 64 {
            self.compact();
        }
        let s = self.next_slot;
        self.last[block] = s as u32;
        self.live[s / 64] |= 1 << (s % 64);
        self.next_slot += 1;
        if self.next_slot.is_multiple_of(64) {
            self.closed
                .add(s / 64, self.live[s / 64].count_ones() as i32);
        }
        self.active += 1;
        self.hist.record(d);
        d
    }

    /// Renumber the live slots to `0..active` in slot order, doubling the
    /// slot range while more than half of it would be live (keeps compaction
    /// amortized O(1) per access).
    fn compact(&mut self) {
        // rank[w] = live slots in the words before w.
        let mut rank = Vec::with_capacity(self.live.len());
        let mut below = 0u32;
        for word in &self.live {
            rank.push(below);
            below += word.count_ones();
        }
        debug_assert_eq!(u64::from(below), self.active);
        // A reused block still maps to its cleared slot here; `access`
        // overwrites that entry right after.
        for s in self.last.iter_mut().filter(|s| **s != NO_SLOT) {
            let (w, b) = (*s as usize / 64, *s % 64);
            *s = rank[w] + (self.live[w] & ((1 << b) - 1)).count_ones();
        }
        let live = self.active as usize;
        let mut slots = self.live.len() * 64;
        while live * 2 > slots {
            slots *= 2;
        }
        self.live = vec![0; slots / 64];
        self.closed = Fenwick::new(slots / 64);
        let full = live / 64;
        self.live[..full].fill(u64::MAX);
        for w in 0..full {
            self.closed.add(w, 64);
        }
        // The open word; `live <= slots / 2` keeps it in range.
        self.live[full] = (1 << (live % 64)) - 1;
        self.next_slot = live;
    }

    /// Number of distinct blocks seen so far.
    pub fn distinct_blocks(&self) -> u64 {
        self.active
    }

    /// The accumulated histogram.
    pub fn histogram(&self) -> &StackDistHistogram {
        &self.hist
    }

    /// Consume the engine, returning the histogram.
    pub fn into_histogram(self) -> StackDistHistogram {
        self.hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Naive O(n²) oracle: a move-to-front LRU stack, most recent block
    /// last, where a reuse's stack distance is the number of blocks above it.
    fn lru_stack(trace: &[u64]) -> Vec<Distance> {
        let mut stack: Vec<u64> = Vec::new();
        trace
            .iter()
            .map(|&addr| {
                let d = match stack.iter().rposition(|&b| b == addr) {
                    Some(depth) => {
                        stack.remove(depth);
                        Distance::Finite((stack.len() - depth) as u64)
                    }
                    None => Distance::Cold,
                };
                stack.push(addr);
                d
            })
            .collect()
    }

    /// Replay `trace` over `0..blocks`, asserting every distance and the
    /// final histogram against [`lru_stack`].
    fn replay_against_lru_stack(blocks: u64, trace: &[u64]) -> StackDistanceEngine {
        let mut engine = StackDistanceEngine::with_dense_addresses(blocks);
        let mut expected = StackDistHistogram::default();
        for (i, (&addr, want)) in trace.iter().zip(lru_stack(trace)).enumerate() {
            assert_eq!(engine.access(addr), want, "access {i} of {}", trace.len());
            expected.record(want);
        }
        let got = engine.histogram();
        assert_eq!(got.cold, expected.cold);
        assert_eq!(got.total(), expected.total());
        assert!(got.iter().eq(expected.iter()), "histograms differ");
        engine
    }

    /// `len` accesses over `blocks` blocks. Half the accesses are uniform;
    /// the rest are shifted right by 1 to 7 bits, which skews them toward
    /// low blocks, so short reuses (in the open word) mix with long ones
    /// (across closed words).
    fn skewed_traces(
        blocks: std::ops::RangeInclusive<u64>,
        len: std::ops::RangeInclusive<usize>,
    ) -> impl Strategy<Value = (u64, Vec<u64>)> {
        (blocks, len).prop_flat_map(|(blocks, len)| {
            vec((0..blocks, 0u32..16), len).prop_map(move |v| {
                let trace = v.into_iter().map(|(a, k)| a >> k.saturating_sub(8));
                (blocks, trace.collect())
            })
        })
    }

    #[test]
    fn simple_reuse_pattern() {
        let mut e = StackDistanceEngine::with_dense_addresses(4);
        assert_eq!(e.access(1), Distance::Cold);
        assert_eq!(e.access(2), Distance::Cold);
        assert_eq!(e.access(3), Distance::Cold);
        assert_eq!(e.access(1), Distance::Finite(2));
        assert_eq!(e.access(1), Distance::Finite(0));
        assert_eq!(e.access(2), Distance::Finite(2));
    }

    #[test]
    fn dense_and_sparse_agree_with_naive() {
        let mut x = 0xDEADBEEFu64;
        let mut rand = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let trace: Vec<u64> = (0..600).map(|_| rand() % 40).collect();
        replay_against_lru_stack(40, &trace);
        // The same blocks spread thinly over a large address space.
        let sparse: Vec<u64> = trace.iter().map(|a| a * 997).collect();
        replay_against_lru_stack(40 * 997, &sparse);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn agrees_with_lru_stack_through_compactions(
            (blocks, trace) in skewed_traces(3000..=4096, 3 * INITIAL_SLOTS + 1..=5 * INITIAL_SLOTS)
        ) {
            let engine = replay_against_lru_stack(blocks, &trace);
            // More than INITIAL_SLOTS / 2 blocks went live, so the slot
            // range doubled at some compaction.
            prop_assert!(engine.live.len() * 64 > INITIAL_SLOTS);
        }

        #[test]
        fn agrees_with_lru_stack_on_tiny_address_ranges(
            (blocks, trace) in skewed_traces(1..=70, 1..=3 * INITIAL_SLOTS)
        ) {
            replay_against_lru_stack(blocks, &trace);
        }
    }

    #[test]
    fn histogram_miss_counts() {
        let mut e = StackDistanceEngine::with_dense_addresses(4);
        // Cyclic scan of 4 blocks, 3 rounds: every reuse has distance 3.
        for _ in 0..3 {
            for a in 0..4 {
                e.access(a);
            }
        }
        let h = e.histogram();
        assert_eq!(h.total(), 12);
        assert_eq!(h.cold, 4);
        assert_eq!(h.misses(4), 4);
        assert_eq!(h.misses(3), 12);
        assert_eq!(h.hits(4), 8);
        assert!((h.miss_ratio(4) - 4.0 / 12.0).abs() < 1e-12);
        assert_eq!(h.max_distance(), Some(3));
        assert_eq!(h.knee_capacities(), vec![4]);
    }

    #[test]
    fn misses_monotone_in_capacity() {
        let mut e = StackDistanceEngine::with_dense_addresses(37);
        let trace: Vec<u64> = (0..500u64).map(|i| (i * i) % 37).collect();
        for &a in &trace {
            e.access(a);
        }
        let h = e.histogram();
        let mut prev = u64::MAX;
        for c in 0..40 {
            let m = h.misses(c);
            assert!(m <= prev);
            prev = m;
        }
        assert_eq!(h.misses(u64::MAX), h.cold);
    }

    #[test]
    fn merge_histograms() {
        let mut a = StackDistHistogram::default();
        let mut b = StackDistHistogram::default();
        a.record(Distance::Cold);
        a.record(Distance::Finite(2));
        b.record(Distance::Finite(2));
        b.record(Distance::Finite(5));
        a.merge(&b);
        assert_eq!(a.total(), 4);
        assert_eq!(a.misses(3), 2); // cold + the distance-5 reuse
        assert_eq!(a.misses(1), 4);
    }
}
