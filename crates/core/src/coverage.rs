//! Maintenance of the temporary top-k diversified d-CC set `R` — the
//! `Update` procedure of Section IV-A / Appendix C.
//!
//! The paper maintains two hash tables: `M[v]` (which result cores contain
//! vertex `v`) and `H[i]` (which cores exclusively cover exactly `i`
//! vertices). Because `k ≤ a few dozen`, we store `M` as a per-vertex owner
//! bitmap over the `k` result slots and `Δ(R, C')` as a per-slot counter,
//! which gives the same O(|C|) update cost with dense arrays instead of hash
//! tables.
//!
//! Update rules (Section IV-A):
//!
//! * **Rule 1** — while `|R| < k`, every candidate is inserted.
//! * **Rule 2** — once `|R| = k`, a candidate `C` replaces the core `C*(R)`
//!   with the fewest exclusively-covered vertices iff
//!   `|Cov((R − {C*}) ∪ {C})| ≥ (1 + 1/k)·|Cov(R)|` (Eq. (1)).

use crate::result::CoherentCore;
use mlgraph::{Vertex, VertexSet};

const WORD_BITS: usize = 64;

/// A frozen snapshot of the pruning-relevant state of a [`TopKDiversified`]
/// set: the three scalars the order-based bound (Lemmas 3 and 6) needs.
///
/// `BU-DCCS` takes one at each node's commit and hands it to the node's
/// children, whose Lemma-3 cut reads it (see [`crate::bottom_up`]). The
/// search runs on the driver in pre-order, so the live bound would be
/// deterministic too. The snapshot is kept because it fixes which children
/// are peeled: reading the live bound would change `dcc_calls`,
/// `subtrees_pruned` and possibly the Lemma-4 exclusions, so the counters
/// would no longer match the record. Candidate acceptance itself always
/// goes through the live set's [`TopKDiversified::try_update`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PruneBounds {
    k: usize,
    full: bool,
    cover_size: usize,
    delta_cstar: usize,
}

impl PruneBounds {
    /// Whether all `k` result slots were occupied at snapshot time (no
    /// order-based pruning is possible before that).
    pub fn is_full(&self) -> bool {
        self.full
    }

    /// Snapshot of [`TopKDiversified::fails_size_bound`]: `true` when a
    /// candidate (or upper bound) of `candidate_size` vertices was already
    /// too small to satisfy Eq. (1) when the task was spawned.
    pub fn fails_size_bound(&self, candidate_size: usize) -> bool {
        if !self.full {
            return false;
        }
        candidate_size * self.k < self.cover_size + self.k * self.delta_cstar
    }
}

/// The temporary top-k diversified result set `R` with incremental coverage
/// bookkeeping.
#[derive(Clone, Debug)]
pub struct TopKDiversified {
    k: usize,
    num_vertices: usize,
    words_per_vertex: usize,
    /// Owner bitmap: `owners[v * words_per_vertex ..]` has bit `j` set iff
    /// result slot `j` contains vertex `v` (the table `M`).
    owners: Vec<u64>,
    /// The cores currently held by each slot (`None` = free slot).
    slots: Vec<Option<CoherentCore>>,
    /// `exclusive[j] = |Δ(R, slot j)|`: vertices covered only by slot `j`
    /// (the table `H`).
    exclusive: Vec<usize>,
    /// `|Cov(R)|`.
    cover_size: usize,
    /// Number of occupied slots.
    num_filled: usize,
    /// Number of accepted updates (Rule 1 insertions + Rule 2 replacements).
    accepted: usize,
}

impl TopKDiversified {
    /// Creates an empty result set with `k` slots over a universe of
    /// `num_vertices` vertices.
    pub fn new(num_vertices: usize, k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        let words_per_vertex = k.div_ceil(WORD_BITS);
        TopKDiversified {
            k,
            num_vertices,
            words_per_vertex,
            owners: vec![0; num_vertices * words_per_vertex],
            slots: vec![None; k],
            exclusive: vec![0; k],
            cover_size: 0,
            num_filled: 0,
            accepted: 0,
        }
    }

    /// Number of cores currently held (`|R|`).
    pub fn len(&self) -> usize {
        self.num_filled
    }

    /// Whether the result set is empty.
    pub fn is_empty(&self) -> bool {
        self.num_filled == 0
    }

    /// Whether all `k` slots are occupied.
    pub fn is_full(&self) -> bool {
        self.num_filled == self.k
    }

    /// The result budget `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// `|Cov(R)|`.
    pub fn cover_size(&self) -> usize {
        self.cover_size
    }

    /// Number of accepted updates so far.
    pub fn accepted_updates(&self) -> usize {
        self.accepted
    }

    /// Materializes `Cov(R)` as a vertex set.
    pub fn cover_set(&self) -> VertexSet {
        let mut cover = VertexSet::new(self.num_vertices);
        self.cover_set_into(&mut cover);
        cover
    }

    /// Writes `Cov(R)` into `out` without allocating (steady state): callers
    /// polling the cover repeatedly reuse one buffer.
    pub fn cover_set_into(&self, out: &mut VertexSet) {
        if out.capacity() != self.num_vertices {
            *out = VertexSet::new(self.num_vertices);
        } else {
            out.clear();
        }
        for slot in self.slots.iter().flatten() {
            out.union_with(&slot.vertices);
        }
    }

    /// Iterates over the currently held cores.
    pub fn cores(&self) -> impl Iterator<Item = &CoherentCore> {
        self.slots.iter().flatten()
    }

    /// Consumes the set and returns the held cores.
    pub fn into_cores(self) -> Vec<CoherentCore> {
        self.slots.into_iter().flatten().collect()
    }

    #[inline]
    fn owner_slice(&self, v: Vertex) -> &[u64] {
        let base = v as usize * self.words_per_vertex;
        &self.owners[base..base + self.words_per_vertex]
    }

    #[inline]
    fn owner_popcount(&self, v: Vertex) -> u32 {
        self.owner_slice(v).iter().map(|w| w.count_ones()).sum()
    }

    #[inline]
    fn owner_single(&self, v: Vertex) -> Option<usize> {
        // Returns the slot index when exactly one bit is set.
        let mut found: Option<usize> = None;
        for (wi, &w) in self.owner_slice(v).iter().enumerate() {
            let ones = w.count_ones();
            if ones == 0 {
                continue;
            }
            if ones > 1 || found.is_some() {
                return None;
            }
            found = Some(wi * WORD_BITS + w.trailing_zeros() as usize);
        }
        found
    }

    #[inline]
    fn set_owner_bit(&mut self, v: Vertex, slot: usize) {
        let base = v as usize * self.words_per_vertex;
        self.owners[base + slot / WORD_BITS] |= 1u64 << (slot % WORD_BITS);
    }

    #[inline]
    fn clear_owner_bit(&mut self, v: Vertex, slot: usize) {
        let base = v as usize * self.words_per_vertex;
        self.owners[base + slot / WORD_BITS] &= !(1u64 << (slot % WORD_BITS));
    }

    /// The slot of `C*(R)` — the core exclusively covering the fewest
    /// vertices — together with `|Δ(R, C*(R))|`. `None` while `R` is empty.
    pub fn min_exclusive_slot(&self) -> Option<(usize, usize)> {
        (0..self.k)
            .filter(|&j| self.slots[j].is_some())
            .map(|j| (j, self.exclusive[j]))
            .min_by_key(|&(j, e)| (e, j))
    }

    /// `|Δ(R, C*(R))|`, or 0 while `R` is empty.
    pub fn delta_cstar(&self) -> usize {
        self.min_exclusive_slot().map(|(_, e)| e).unwrap_or(0)
    }

    /// `|Cov(R ∪ {C}) | − |Cov(R)|`: how many new vertices `set` would add.
    pub fn marginal_gain(&self, set: &VertexSet) -> usize {
        set.iter().filter(|&v| self.owner_popcount(v) == 0).count()
    }

    /// `|Cov((R − {C*(R)}) ∪ {C})|` — the `Size` operation of Appendix C.
    /// When `R` is empty this is simply `|C|`.
    pub fn replacement_cover_size(&self, set: &VertexSet) -> usize {
        let Some((cstar, delta)) = self.min_exclusive_slot() else {
            return set.len();
        };
        let base = self.cover_size - delta;
        let cstar_core = self.slots[cstar].as_ref().expect("occupied slot");
        let mut extra = 0usize;
        for v in set.iter() {
            let pop = self.owner_popcount(v);
            if pop == 0 {
                extra += 1;
            } else if pop == 1 && cstar_core.vertices.contains(v) {
                // Covered only by C*, which is being evicted; C re-covers it.
                extra += 1;
            }
        }
        base + extra
    }

    /// Whether a candidate with vertex set `set` satisfies Eq. (1):
    /// `|Cov((R − {C*}) ∪ {C})| ≥ (1 + 1/k)·|Cov(R)|`.
    ///
    /// While `|R| < k` this returns `true` (Rule 1 applies unconditionally).
    pub fn satisfies_eq1(&self, set: &VertexSet) -> bool {
        if !self.is_full() {
            return true;
        }
        let replacement = self.replacement_cover_size(set);
        replacement * self.k >= (self.k + 1) * self.cover_size
    }

    /// Order-based pruning bound (Lemmas 3 and 6): returns `true` when a
    /// candidate (or potential set) of size `candidate_size` is too small to
    /// ever satisfy Eq. (1), i.e. when
    /// `candidate_size < |Cov(R)|/k + |Δ(R, C*(R))|`.
    ///
    /// Always `false` while `|R| < k` (the pruning rules only apply to a full
    /// result set). Delegates to a fresh [`PruneBounds`] snapshot so the
    /// live bound and the spawn-time snapshot share one formula.
    pub fn fails_size_bound(&self, candidate_size: usize) -> bool {
        self.bounds().fails_size_bound(candidate_size)
    }

    /// Captures the scalars the order-based pruning bound depends on, for
    /// handing to a search-tree task at spawn time (see [`PruneBounds`]).
    pub fn bounds(&self) -> PruneBounds {
        PruneBounds {
            k: self.k,
            full: self.is_full(),
            cover_size: self.cover_size,
            delta_cstar: self.delta_cstar(),
        }
    }

    /// Potential-set pruning bound (Lemma 7, Eq. (2)): returns `true` when
    /// `potential_size < (1/k + 1/k²)·|Cov(R)| + (1 + 1/k)·|Δ(R, C*(R))|`,
    /// meaning at most one descendant of the node can ever update `R`.
    pub fn satisfies_eq2(&self, potential_size: usize) -> bool {
        if !self.is_full() {
            return false;
        }
        let k = self.k;
        // potential_size < (k + 1)/k² · cover + (k + 1)/k · delta
        // ⇔ potential_size · k² < (k + 1)·cover + k·(k + 1)·delta
        potential_size * k * k < (k + 1) * self.cover_size + k * (k + 1) * self.delta_cstar()
    }

    fn insert_into_slot(&mut self, slot: usize, core: CoherentCore) {
        debug_assert!(self.slots[slot].is_none());
        for v in core.vertices.iter() {
            let pop = self.owner_popcount(v);
            if pop == 0 {
                self.cover_size += 1;
                self.exclusive[slot] += 1;
            } else if pop == 1 {
                let owner = self.owner_single(v).expect("single owner");
                self.exclusive[owner] -= 1;
            }
            self.set_owner_bit(v, slot);
        }
        self.slots[slot] = Some(core);
        self.num_filled += 1;
    }

    fn remove_slot(&mut self, slot: usize) -> CoherentCore {
        let core = self.slots[slot].take().expect("removing an empty slot");
        for v in core.vertices.iter() {
            self.clear_owner_bit(v, slot);
            let pop = self.owner_popcount(v);
            if pop == 0 {
                self.cover_size -= 1;
                self.exclusive[slot] -= 1;
            } else if pop == 1 {
                let owner = self.owner_single(v).expect("single owner");
                self.exclusive[owner] += 1;
            }
        }
        debug_assert_eq!(self.exclusive[slot], 0);
        self.num_filled -= 1;
        core
    }

    /// The `Update` procedure: tries to improve `R` with the candidate core,
    /// applying Rule 1 or Rule 2. Returns `true` when `R` changed.
    pub fn try_update(&mut self, core: CoherentCore) -> bool {
        if self.num_filled < self.k {
            let slot = self.slots.iter().position(|s| s.is_none()).expect("free slot exists");
            self.insert_into_slot(slot, core);
            self.accepted += 1;
            return true;
        }
        if !self.satisfies_eq1(&core.vertices) {
            return false;
        }
        let (cstar, _) = self.min_exclusive_slot().expect("full set has a minimum");
        self.remove_slot(cstar);
        self.insert_into_slot(cstar, core);
        self.accepted += 1;
        true
    }

    /// Debug helper: recomputes the coverage bookkeeping from scratch and
    /// checks it against the incremental state. Used by tests.
    #[doc(hidden)]
    pub fn check_invariants(&self) -> bool {
        let cover = self.cover_set();
        if cover.len() != self.cover_size {
            return false;
        }
        for j in 0..self.k {
            let expected = match &self.slots[j] {
                None => 0,
                Some(core) => core
                    .vertices
                    .iter()
                    .filter(|&v| {
                        self.slots.iter().enumerate().all(|(i, s)| {
                            i == j || s.as_ref().is_none_or(|c| !c.vertices.contains(v))
                        })
                    })
                    .count(),
            };
            if expected != self.exclusive[j] {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlgraph::Layer;

    fn core(layers: Vec<Layer>, vertices: &[Vertex]) -> CoherentCore {
        CoherentCore::new(layers, VertexSet::from_iter(32, vertices.iter().copied()))
    }

    #[test]
    fn rule1_fills_free_slots() {
        let mut r = TopKDiversified::new(32, 2);
        assert!(r.is_empty());
        assert!(r.try_update(core(vec![0], &[0, 1, 2])));
        assert!(r.try_update(core(vec![1], &[2, 3])));
        assert!(r.is_full());
        assert_eq!(r.cover_size(), 4);
        assert_eq!(r.cover_set().to_vec(), vec![0, 1, 2, 3]);
        assert!(r.check_invariants());
    }

    #[test]
    fn exclusive_counts_are_maintained() {
        let mut r = TopKDiversified::new(32, 2);
        r.try_update(core(vec![0], &[0, 1, 2]));
        r.try_update(core(vec![1], &[2, 3]));
        // Slot 0 exclusively covers {0,1}; slot 1 exclusively covers {3}.
        let (cstar, delta) = r.min_exclusive_slot().unwrap();
        assert_eq!(cstar, 1);
        assert_eq!(delta, 1);
        assert_eq!(r.delta_cstar(), 1);
        assert!(r.check_invariants());
    }

    #[test]
    fn rule2_replaces_only_on_sufficient_gain() {
        let mut r = TopKDiversified::new(32, 2);
        r.try_update(core(vec![0], &[0, 1, 2]));
        r.try_update(core(vec![1], &[2, 3]));
        assert_eq!(r.cover_size(), 4);
        // Candidate {4,5}: replacing C* (={2,3}) gives cover {0,1,2,4,5} = 5
        // which is < (1 + 1/2)·4 = 6 → rejected.
        assert!(!r.try_update(core(vec![2], &[4, 5])));
        assert_eq!(r.cover_size(), 4);
        // Candidate {3,4,5,6}: replacing C* gives {0,1,2,3,4,5,6} = 7 ≥ 6 → accepted.
        assert!(r.try_update(core(vec![2], &[3, 4, 5, 6])));
        assert_eq!(r.cover_size(), 7);
        assert_eq!(r.len(), 2);
        assert!(r.check_invariants());
    }

    #[test]
    fn replacement_cover_size_matches_manual_computation() {
        let mut r = TopKDiversified::new(32, 2);
        r.try_update(core(vec![0], &[0, 1, 2, 3]));
        r.try_update(core(vec![1], &[3, 4]));
        // C* is slot 1 (exclusive {4}). Replacing it with {4, 5, 6}:
        // Cov = {0,1,2,3} ∪ {4,5,6} = 7.
        let candidate = VertexSet::from_iter(32, [4, 5, 6]);
        assert_eq!(r.replacement_cover_size(&candidate), 7);
        // Replacing with {0, 1}: Cov = {0,1,2,3} = 4.
        let candidate = VertexSet::from_iter(32, [0, 1]);
        assert_eq!(r.replacement_cover_size(&candidate), 4);
    }

    #[test]
    fn replacement_cover_size_on_empty_set_is_candidate_size() {
        let r = TopKDiversified::new(32, 3);
        let candidate = VertexSet::from_iter(32, [1, 2, 3]);
        assert_eq!(r.replacement_cover_size(&candidate), 3);
        assert!(r.satisfies_eq1(&candidate));
    }

    #[test]
    fn size_bound_pruning_behaviour() {
        let mut r = TopKDiversified::new(32, 2);
        // Not full: never prune.
        assert!(!r.fails_size_bound(0));
        r.try_update(core(vec![0], &[0, 1, 2, 3]));
        r.try_update(core(vec![1], &[4, 5]));
        // cover = 6, delta(C*) = 2 → bound = 6/2 + 2 = 5.
        assert!(r.fails_size_bound(4));
        assert!(!r.fails_size_bound(5));
        assert!(!r.fails_size_bound(10));
    }

    /// A snapshot must answer the size bound exactly as the live set did at
    /// capture time, and stay frozen while the live set moves on.
    #[test]
    fn bounds_snapshot_matches_live_set_at_capture_time() {
        let mut r = TopKDiversified::new(32, 2);
        let empty_snapshot = r.bounds();
        assert!(!empty_snapshot.is_full());
        assert!(!empty_snapshot.fails_size_bound(0));
        r.try_update(core(vec![0], &[0, 1, 2, 3]));
        r.try_update(core(vec![1], &[4, 5]));
        let snapshot = r.bounds();
        assert!(snapshot.is_full());
        for size in 0..12 {
            assert_eq!(snapshot.fails_size_bound(size), r.fails_size_bound(size), "size={size}");
        }
        // The live set accepts a better core; the snapshot must not move.
        assert!(r.try_update(core(vec![2], &[3, 4, 5, 6, 7, 8])));
        assert!(snapshot.fails_size_bound(4));
        assert_ne!(snapshot.fails_size_bound(5), r.fails_size_bound(5));
    }

    #[test]
    fn eq2_bound_behaviour() {
        let mut r = TopKDiversified::new(32, 2);
        assert!(!r.satisfies_eq2(100));
        r.try_update(core(vec![0], &[0, 1, 2, 3]));
        r.try_update(core(vec![1], &[4, 5]));
        // cover = 6, delta = 2, k = 2:
        // bound = (1/2 + 1/4)·6 + (1 + 1/2)·2 = 4.5 + 3 = 7.5.
        assert!(r.satisfies_eq2(7));
        assert!(!r.satisfies_eq2(8));
    }

    #[test]
    fn duplicate_candidate_does_not_grow_cover() {
        let mut r = TopKDiversified::new(32, 2);
        r.try_update(core(vec![0], &[0, 1, 2]));
        r.try_update(core(vec![1], &[0, 1, 2]));
        assert_eq!(r.cover_size(), 3);
        // Both slots exclusively cover nothing.
        assert_eq!(r.delta_cstar(), 0);
        // A third identical candidate fails Eq. (1) because
        // (1 + 1/2)·3 = 4.5 > 3.
        assert!(!r.try_update(core(vec![2], &[0, 1, 2])));
        assert!(r.check_invariants());
    }

    #[test]
    fn marginal_gain_counts_new_vertices_only() {
        let mut r = TopKDiversified::new(32, 2);
        r.try_update(core(vec![0], &[0, 1, 2]));
        let s = VertexSet::from_iter(32, [2, 3, 4]);
        assert_eq!(r.marginal_gain(&s), 2);
        assert_eq!(r.marginal_gain(&VertexSet::new(32)), 0);
    }

    #[test]
    fn large_k_uses_multiple_owner_words() {
        let mut r = TopKDiversified::new(32, 70);
        for j in 0..70u32 {
            assert!(r.try_update(core(vec![j as Layer], &[j % 16])));
        }
        assert_eq!(r.len(), 70);
        assert_eq!(r.cover_size(), 16);
        assert!(r.check_invariants());
    }

    #[test]
    fn into_cores_returns_held_cores() {
        let mut r = TopKDiversified::new(32, 3);
        r.try_update(core(vec![0], &[0, 1]));
        r.try_update(core(vec![1], &[2]));
        let cores = r.into_cores();
        assert_eq!(cores.len(), 2);
    }

    #[test]
    fn accepted_updates_counter() {
        let mut r = TopKDiversified::new(32, 1);
        assert_eq!(r.accepted_updates(), 0);
        r.try_update(core(vec![0], &[0]));
        assert_eq!(r.accepted_updates(), 1);
        // Rejected update does not count.
        r.try_update(core(vec![1], &[1]));
        assert_eq!(r.accepted_updates(), 1);
        // {0,1} replaces {0}: 2 ≥ (1 + 1)·1.
        assert!(r.try_update(core(vec![2], &[0, 1])));
        assert_eq!(r.accepted_updates(), 2);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let _ = TopKDiversified::new(10, 0);
    }
}
