//! Sparse binary vectors as sorted dimension lists.

use std::fmt;

/// A sparse vector in `{0,1}^d`, stored as the sorted, duplicate-free list of
/// dimensions whose value is 1.
///
/// Dimensions are `u32` indices into the universe `[d]`. The Hamming weight
/// `|x|` is [`SparseVec::weight`]. Invariant: the internal list is strictly
/// increasing — all constructors enforce it.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct SparseVec {
    dims: Vec<u32>,
}

impl SparseVec {
    /// An empty vector (Hamming weight 0).
    #[inline]
    pub fn empty() -> Self {
        Self { dims: Vec::new() }
    }

    /// Builds from a list that is already strictly increasing.
    ///
    /// # Panics
    /// Panics (in debug builds) if the input is not strictly increasing.
    #[inline]
    pub fn from_sorted(dims: Vec<u32>) -> Self {
        debug_assert!(
            dims.windows(2).all(|w| w[0] < w[1]),
            "from_sorted requires strictly increasing dimensions"
        );
        Self { dims }
    }

    /// Builds from an arbitrary list: sorts and removes duplicates.
    pub fn from_unsorted(mut dims: Vec<u32>) -> Self {
        dims.sort_unstable();
        dims.dedup();
        Self { dims }
    }

    /// The Hamming weight `|x|` (number of 1-bits / set cardinality).
    #[inline]
    pub fn weight(&self) -> usize {
        self.dims.len()
    }

    /// True iff the vector has no set bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.dims.is_empty()
    }

    /// The sorted set dimensions.
    #[inline]
    pub fn dims(&self) -> &[u32] {
        &self.dims
    }

    /// Consumes `self`, returning the sorted dimension list.
    #[inline]
    pub fn into_dims(self) -> Vec<u32> {
        self.dims
    }

    /// Iterates over the set dimensions in increasing order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.dims.iter().copied()
    }

    /// True iff dimension `i` is set (`x_i = 1`). Binary search, `O(log |x|)`.
    #[inline]
    pub fn contains(&self, i: u32) -> bool {
        self.dims.binary_search(&i).is_ok()
    }

    /// `|x ∩ q|`: the dot product of the two 0/1 vectors.
    ///
    /// Uses a linear merge when the weights are comparable and galloping
    /// (exponential search from the smaller side) when they differ by more
    /// than [`GALLOP_RATIO`]; the paper's skewed workloads routinely pair a
    /// short query against long stored vectors, where galloping is the
    /// asymptotically right choice (`O(min · log(max/min))`).
    pub fn intersection_len(&self, other: &SparseVec) -> usize {
        let (small, large) = if self.weight() <= other.weight() {
            (&self.dims, &other.dims)
        } else {
            (&other.dims, &self.dims)
        };
        if small.is_empty() {
            return 0;
        }
        if large.len() / small.len() >= GALLOP_RATIO {
            gallop_intersection_len(small, large)
        } else {
            merge_intersection_len(small, large)
        }
    }

    /// `|x ∪ q|` — via inclusion–exclusion on the intersection.
    #[inline]
    pub fn union_len(&self, other: &SparseVec) -> usize {
        self.weight() + other.weight() - self.intersection_len(other)
    }

    /// The intersection as a new vector.
    pub fn intersection(&self, other: &SparseVec) -> SparseVec {
        let mut out = Vec::with_capacity(self.weight().min(other.weight()));
        let (mut a, mut b) = (self.dims.iter(), other.dims.iter());
        let (mut x, mut y) = (a.next(), b.next());
        while let (Some(&u), Some(&v)) = (x, y) {
            match u.cmp(&v) {
                std::cmp::Ordering::Less => x = a.next(),
                std::cmp::Ordering::Greater => y = b.next(),
                std::cmp::Ordering::Equal => {
                    out.push(u);
                    x = a.next();
                    y = b.next();
                }
            }
        }
        SparseVec { dims: out }
    }

    /// The union as a new vector.
    pub fn union(&self, other: &SparseVec) -> SparseVec {
        let mut out = Vec::with_capacity(self.weight() + other.weight());
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.dims.len() && j < other.dims.len() {
            match self.dims[i].cmp(&other.dims[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.dims[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(other.dims[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(self.dims[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.dims[i..]);
        out.extend_from_slice(&other.dims[j..]);
        SparseVec { dims: out }
    }

    /// Set difference `x \ q` as a new vector.
    pub fn difference(&self, other: &SparseVec) -> SparseVec {
        let mut out = Vec::with_capacity(self.weight());
        let mut j = 0usize;
        for &u in &self.dims {
            while j < other.dims.len() && other.dims[j] < u {
                j += 1;
            }
            if j >= other.dims.len() || other.dims[j] != u {
                out.push(u);
            }
        }
        SparseVec { dims: out }
    }
}

/// Size ratio above which intersection switches from merging to galloping.
pub const GALLOP_RATIO: usize = 16;

fn merge_intersection_len(a: &[u32], b: &[u32]) -> usize {
    let mut count = 0usize;
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

fn gallop_intersection_len(small: &[u32], large: &[u32]) -> usize {
    let mut count = 0usize;
    let mut lo = 0usize;
    for &v in small {
        // Exponential search for v in large[lo..]. The loop exits with
        // large[hi] >= v (or hi past the end); the probe position itself may
        // hold v, so the binary-search window must be inclusive of hi.
        let mut step = 1usize;
        let mut hi = lo;
        while hi < large.len() && large[hi] < v {
            lo = hi + 1;
            hi = lo + step;
            step <<= 1;
        }
        let hi = (hi + 1).min(large.len());
        match large[lo..hi].binary_search(&v) {
            Ok(off) => {
                count += 1;
                lo += off + 1;
            }
            Err(off) => lo += off,
        }
        if lo >= large.len() {
            break;
        }
    }
    count
}

impl fmt::Debug for SparseVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SparseVec{:?}", self.dims)
    }
}

impl FromIterator<u32> for SparseVec {
    fn from_iter<T: IntoIterator<Item = u32>>(iter: T) -> Self {
        SparseVec::from_unsorted(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a SparseVec {
    type Item = u32;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, u32>>;
    fn into_iter(self) -> Self::IntoIter {
        self.dims.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(dims: &[u32]) -> SparseVec {
        SparseVec::from_unsorted(dims.to_vec())
    }

    #[test]
    fn from_unsorted_sorts_and_dedups() {
        let x = SparseVec::from_unsorted(vec![5, 1, 5, 3, 1]);
        assert_eq!(x.dims(), &[1, 3, 5]);
        assert_eq!(x.weight(), 3);
    }

    #[test]
    fn empty_vector_behaviour() {
        let e = SparseVec::empty();
        assert!(e.is_empty());
        assert_eq!(e.weight(), 0);
        assert_eq!(e.intersection_len(&v(&[1, 2, 3])), 0);
        assert_eq!(e.union_len(&v(&[1, 2, 3])), 3);
        assert!(!e.contains(0));
    }

    #[test]
    fn contains_finds_members_only() {
        let x = v(&[2, 4, 8, 16]);
        for i in 0..20 {
            assert_eq!(x.contains(i), [2, 4, 8, 16].contains(&i), "dim {i}");
        }
    }

    #[test]
    fn intersection_len_matches_naive() {
        let x = v(&[1, 2, 3, 10, 20, 30]);
        let y = v(&[2, 3, 4, 20, 40]);
        assert_eq!(x.intersection_len(&y), 3);
        assert_eq!(y.intersection_len(&x), 3);
    }

    #[test]
    fn gallop_path_is_exercised_and_correct() {
        // large/small ratio >= GALLOP_RATIO forces the galloping branch.
        let small = v(&[0, 500, 999]);
        let large = SparseVec::from_sorted((0..1000).collect());
        assert_eq!(small.intersection_len(&large), 3);
        let small2 = v(&[1000, 2000]);
        assert_eq!(small2.intersection_len(&large), 0);
    }

    #[test]
    fn gallop_probe_landing_exactly_on_target_is_found() {
        // Regression (found by proptest): the exponential probe can land on
        // an element equal to the needle; the search window must include it.
        let small = v(&[12_066]);
        let large = SparseVec::from_sorted((0..20_000).collect());
        assert_eq!(small.intersection_len(&large), 1);
        // Sweep many singleton needles to cover all probe geometries.
        let sparse_large: Vec<u32> = (0..5_000).map(|i| i * 3 + 1).collect();
        let large2 = SparseVec::from_sorted(sparse_large.clone());
        for &needle in sparse_large.iter().step_by(97) {
            let s = v(&[needle]);
            assert_eq!(s.intersection_len(&large2), 1, "needle {needle}");
        }
    }

    #[test]
    fn gallop_handles_small_elements_past_end_of_large() {
        let small = v(&[5, 100, 200, 300]);
        let large = SparseVec::from_sorted((0..64).collect());
        assert_eq!(small.intersection_len(&large), 1);
    }

    #[test]
    fn union_and_difference() {
        let x = v(&[1, 3, 5]);
        let y = v(&[3, 4]);
        assert_eq!(x.union(&y).dims(), &[1, 3, 4, 5]);
        assert_eq!(x.union_len(&y), 4);
        assert_eq!(x.difference(&y).dims(), &[1, 5]);
        assert_eq!(y.difference(&x).dims(), &[4]);
    }

    #[test]
    fn intersection_vector_matches_len() {
        let x = v(&[1, 2, 3, 4]);
        let y = v(&[2, 4, 6]);
        let i = x.intersection(&y);
        assert_eq!(i.dims(), &[2, 4]);
        assert_eq!(i.weight(), x.intersection_len(&y));
    }

    #[test]
    fn from_iterator_collects() {
        let x: SparseVec = [9u32, 1, 9, 4].into_iter().collect();
        assert_eq!(x.dims(), &[1, 4, 9]);
    }
}
