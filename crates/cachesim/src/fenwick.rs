//! Fenwick (binary indexed) tree over `u32` counters, used by the
//! stack-distance engine to count live slots up to a bitmap word.

/// A Fenwick tree supporting point add and prefix-sum queries in `O(log n)`.
#[derive(Debug, Clone)]
pub(crate) struct Fenwick {
    tree: Vec<u32>,
}

impl Fenwick {
    /// A tree over indices `0..n`, all zero.
    pub(crate) fn new(n: usize) -> Self {
        Fenwick {
            tree: vec![0; n + 1],
        }
    }

    /// Add `delta` at `index`.
    #[inline]
    pub(crate) fn add(&mut self, index: usize, delta: i32) {
        let mut i = index + 1;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add(delta as u32);
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of values at indices `0..=index`.
    #[inline]
    pub(crate) fn prefix_sum(&self, index: usize) -> u64 {
        let mut i = (index + 1).min(self.tree.len() - 1);
        let mut acc = 0u64;
        while i > 0 {
            acc += self.tree[i] as u64;
            i -= i & i.wrapping_neg();
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_sums() {
        let mut f = Fenwick::new(10);
        f.add(0, 1);
        f.add(4, 2);
        f.add(9, 3);
        assert_eq!(f.prefix_sum(0), 1);
        assert_eq!(f.prefix_sum(3), 1);
        assert_eq!(f.prefix_sum(4), 3);
        assert_eq!(f.prefix_sum(9), 6);
    }

    #[test]
    fn add_and_remove() {
        let mut f = Fenwick::new(16);
        f.add(5, 1);
        f.add(7, 1);
        f.add(5, -1);
        assert_eq!(f.prefix_sum(15), 1);
    }
}
