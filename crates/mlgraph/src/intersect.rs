//! Sorted-run intersection primitives: linear merge and galloping
//! (exponential) search, with an adaptive entry point that picks between
//! them by length ratio.
//!
//! CSR adjacencies are stored as ascending runs, so "how many neighbors do
//! two vertices share" questions reduce to run∩run intersections
//! ([`crate::Csr::common_degree`]). A linear merge is optimal
//! when the runs have similar lengths; when one run is much shorter,
//! galloping skips through the long run in `O(short · log(long/short))`
//! instead of scanning it.

/// When `long / short` reaches this ratio, galloping beats the merge.
const GALLOP_RATIO: usize = 8;

/// Size of the intersection of two ascending runs (linear merge).
pub fn merge_count<T: Ord + Copy>(a: &[T], b: &[T]) -> usize {
    let (mut i, mut j, mut count) = (0usize, 0usize, 0usize);
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

/// First index in the ascending run `run[from..]` whose element is `>=
/// target`, found by doubling steps then a binary search of the bracketed
/// window (galloping / exponential search).
#[inline]
fn gallop_to<T: Ord + Copy>(run: &[T], mut from: usize, target: T) -> usize {
    let mut step = 1usize;
    let mut bound = from;
    while bound < run.len() && run[bound] < target {
        from = bound + 1;
        bound += step;
        step <<= 1;
    }
    let hi = bound.min(run.len());
    from + run[from..hi].partition_point(|&x| x < target)
}

/// Size of the intersection of two ascending runs where `short` is much
/// shorter than `long`: for each element of `short`, gallop through `long`.
pub fn galloping_count<T: Ord + Copy>(short: &[T], long: &[T]) -> usize {
    let mut pos = 0usize;
    let mut count = 0usize;
    for &x in short {
        pos = gallop_to(long, pos, x);
        if pos == long.len() {
            break;
        }
        if long[pos] == x {
            count += 1;
            pos += 1;
        }
    }
    count
}

/// Size of the intersection of two ascending runs, choosing merge or
/// galloping by length ratio. Both inputs must be sorted ascending
/// (duplicates pair up positionally, so deduped inputs give set semantics).
pub fn sorted_intersect_count<T: Ord + Copy>(a: &[T], b: &[T]) -> usize {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        return 0;
    }
    if long.len() / short.len() >= GALLOP_RATIO {
        galloping_count(short, long)
    } else {
        merge_count(short, long)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &[u32], b: &[u32]) -> Vec<u32> {
        a.iter().copied().filter(|x| b.binary_search(x).is_ok()).collect()
    }

    /// Deterministic pseudo-random ascending run.
    fn run(seed: u64, len: usize, universe: u32) -> Vec<u32> {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        let mut v: Vec<u32> = (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) as u32 % universe.max(1)
            })
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn merge_and_gallop_agree_with_naive() {
        for (la, lb, universe) in
            [(0, 5, 100), (5, 0, 100), (10, 10, 40), (4, 900, 4000), (900, 4, 4000), (64, 64, 80)]
        {
            let a = run(la as u64 + 1, la, universe);
            let b = run(lb as u64 + 77, lb, universe);
            let expected = naive(&a, &b).len();
            assert_eq!(merge_count(&a, &b), expected, "merge {la}x{lb}");
            assert_eq!(galloping_count(&a, &b), expected, "gallop {la}x{lb}");
            assert_eq!(sorted_intersect_count(&a, &b), expected, "adaptive {la}x{lb}");
            assert_eq!(sorted_intersect_count(&b, &a), expected, "adaptive swapped {la}x{lb}");
        }
    }

    #[test]
    fn gallop_to_finds_the_lower_bound() {
        let run = [2u32, 4, 8, 16, 32, 64];
        assert_eq!(gallop_to(&run, 0, 0), 0);
        assert_eq!(gallop_to(&run, 0, 4), 1);
        assert_eq!(gallop_to(&run, 0, 5), 2);
        assert_eq!(gallop_to(&run, 2, 64), 5);
        assert_eq!(gallop_to(&run, 0, 100), 6);
        assert_eq!(gallop_to(&run, 6, 100), 6);
    }
}
