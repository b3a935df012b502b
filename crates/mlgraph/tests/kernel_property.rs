//! Property suite for the bit-kernel layer: every kernel this host can run
//! must be bit-identical to the scalar reference on randomized
//! [`VertexSet`]s — including partial trailing words, empty sets, and full
//! sets — across every dispatched operation. The CSR sorted-run degree
//! (`degree_within` via `BitKernel::sorted_and_count`) must agree with the
//! scalar membership walk on randomized adjacencies.
//!
//! CI runs the whole workspace suite once with `DCCS_FORCE_KERNEL=scalar`
//! and once unforced (auto dispatch), so the selected kernel is also
//! exercised end to end through the peeling engines, not just here.

use mlgraph::kernels::{available_kernels, kernel, kernel_for, KernelKind};
use mlgraph::{Csr, Vertex, VertexSet};
use proptest::prelude::*;

/// Strategy: a universe capacity that lands on word boundaries, just past
/// them, and far between (capacity % 64 ∈ {0, 1, 63, …}).
fn capacity_strategy() -> impl Strategy<Value = usize> {
    prop::collection::vec(1usize..200, 1..=1).prop_map(|v| {
        let base = v[0];
        match base % 4 {
            0 => base.next_multiple_of(64),     // exact word boundary
            1 => base.next_multiple_of(64) + 1, // one bit into a new word
            2 => base.next_multiple_of(64) - 1, // partial trailing word
            _ => base,
        }
    })
}

fn build_sets(cap: usize, a: Vec<u32>, b: Vec<u32>, shape: u32) -> (VertexSet, VertexSet) {
    // Raw members are drawn over a fixed range and folded into the
    // universe here (the vendored proptest stub cannot chain strategies).
    let fold = |vs: Vec<u32>| vs.into_iter().map(|v| v % cap as Vertex);
    // Shapes 0/1 force the extremes on one side: empty and full sets must
    // behave, not just random ones.
    let a = match shape {
        0 => VertexSet::new(cap),
        1 => VertexSet::full(cap),
        _ => VertexSet::from_iter(cap, fold(a)),
    };
    let b = match shape {
        2 => VertexSet::new(cap),
        3 => VertexSet::full(cap),
        _ => VertexSet::from_iter(cap, fold(b)),
    };
    (a, b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // All available kernels agree with scalar on every primitive, for
    // every universe shape.
    #[test]
    fn kernels_are_bit_identical_on_vertex_sets(
        cap in capacity_strategy(),
        a in prop::collection::vec(0u32..100_000, 0..128),
        b in prop::collection::vec(0u32..100_000, 0..128),
        shape in 0u32..9,
    ) {
        let scalar = kernel_for(KernelKind::Scalar).expect("scalar always available");
        let (sa, sb) = build_sets(cap, a, b, shape);
        for k in available_kernels() {
            let kind = k.kind();
            // assign ops
            let mut out_s = vec![0u64; sa.words().len()];
            let mut out_k = out_s.clone();
            let cs = scalar.and_assign_count(&mut out_s, sa.words(), sb.words());
            let ck = k.and_assign_count(&mut out_k, sa.words(), sb.words());
            prop_assert_eq!((cs, &out_s), (ck, &out_k), "and_assign {:?} cap={}", kind, cap);
            let cs = scalar.andnot_assign_count(&mut out_s, sa.words(), sb.words());
            let ck = k.andnot_assign_count(&mut out_k, sa.words(), sb.words());
            prop_assert_eq!((cs, &out_s), (ck, &out_k), "andnot_assign {:?} cap={}", kind, cap);
            // in-place ops
            let mut acc_s = sa.words().to_vec();
            let mut acc_k = sa.words().to_vec();
            prop_assert_eq!(
                scalar.and_inplace_count(&mut acc_s, sb.words()),
                k.and_inplace_count(&mut acc_k, sb.words())
            );
            prop_assert_eq!(&acc_s, &acc_k, "and_inplace {:?} cap={}", kind, cap);
            let mut acc_s = sa.words().to_vec();
            let mut acc_k = sa.words().to_vec();
            prop_assert_eq!(
                scalar.or_inplace_count(&mut acc_s, sb.words()),
                k.or_inplace_count(&mut acc_k, sb.words())
            );
            prop_assert_eq!(&acc_s, &acc_k, "or_inplace {:?} cap={}", kind, cap);
            let mut acc_s = sa.words().to_vec();
            let mut acc_k = sa.words().to_vec();
            prop_assert_eq!(
                scalar.andnot_inplace_count(&mut acc_s, sb.words()),
                k.andnot_inplace_count(&mut acc_k, sb.words())
            );
            prop_assert_eq!(&acc_s, &acc_k, "andnot_inplace {:?} cap={}", kind, cap);
            // pure count
            prop_assert_eq!(
                scalar.and_count(sa.words(), sb.words()),
                k.and_count(sa.words(), sb.words()),
                "and_count {:?} cap={}", kind, cap
            );
        }
    }

    // The dispatched `VertexSet` operations equal a definitional model —
    // whatever kernel this process selected (forced or auto).
    #[test]
    fn vertex_set_ops_match_definitional_model(
        cap in capacity_strategy(),
        a in prop::collection::vec(0u32..100_000, 0..128),
        b in prop::collection::vec(0u32..100_000, 0..128),
        shape in 0u32..9,
    ) {
        let _ = kernel(); // force selection up front
        let (sa, sb) = build_sets(cap, a, b, shape);
        let model_a: std::collections::BTreeSet<u32> = sa.iter().collect();
        let model_b: std::collections::BTreeSet<u32> = sb.iter().collect();
        let inter: Vec<u32> = model_a.intersection(&model_b).copied().collect();
        let uni: Vec<u32> = model_a.union(&model_b).copied().collect();
        let diff: Vec<u32> = model_a.difference(&model_b).copied().collect();
        prop_assert_eq!(sa.intersection(&sb).to_vec(), inter.clone());
        prop_assert_eq!(sa.union(&sb).to_vec(), uni);
        prop_assert_eq!(sa.difference(&sb).to_vec(), diff);
        prop_assert_eq!(sa.intersection_len(&sb), inter.len());
        prop_assert_eq!(sa.intersection_len_words(sb.words()), inter.len());
        let mut out = VertexSet::new(cap);
        out.assign_intersection(&sa, &sb);
        prop_assert_eq!(out.to_vec(), inter.clone());
        prop_assert_eq!(out.len(), inter.len());
    }

    // CSR: the kernel-dispatched sorted-run degree equals the scalar
    // membership walk on randomized adjacencies.
    #[test]
    fn csr_sorted_run_kernels_match_scalar_walk(
        n_raw in 2usize..400,
        edges_raw in prop::collection::vec((0u32..1_000, 0u32..1_000), 0..800),
        members in prop::collection::vec(0u32..1_000, 0..200),
    ) {
        let n = n_raw;
        let edges: Vec<(Vertex, Vertex)> = edges_raw
            .into_iter()
            .map(|(u, v)| (u % n as Vertex, v % n as Vertex))
            .filter(|(u, v)| u != v)
            .collect();
        let csr = Csr::from_edges(n, &edges);
        let within = VertexSet::from_iter(n, members.into_iter().map(|v| v % n as Vertex));
        for v in 0..n as Vertex {
            // Definitional scalar membership walk.
            let expected = csr.neighbors(v).iter().filter(|&&u| within.contains(u)).count();
            prop_assert_eq!(csr.degree_within(v, &within), expected, "degree_within v={}", v);
            for k in available_kernels() {
                prop_assert_eq!(
                    k.sorted_and_count(csr.neighbors(v), within.words()),
                    expected,
                    "sorted_and_count {:?} v={}", k.kind(), v
                );
            }
        }
    }
}
