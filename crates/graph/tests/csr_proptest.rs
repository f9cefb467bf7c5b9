//! Property-based tests of the CSR counting-sort construction: the
//! invariants the streaming kernels lean on (offset monotonicity, multiset
//! equality with the edge list, stability) on arbitrary multigraphs.

use csb_graph::graph::{PropertyGraph, VertexId};
use csb_graph::ooc::SliceScan;
use csb_graph::Csr;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn graph_of(n: u32, edges: &[(u32, u32)]) -> PropertyGraph<(), ()> {
    let mut g: PropertyGraph<(), ()> = PropertyGraph::new();
    let vs: Vec<VertexId> = (0..n).map(|_| g.add_vertex(())).collect();
    for &(s, d) in edges {
        g.add_edge(vs[(s % n) as usize], vs[(d % n) as usize], ());
    }
    g
}

fn multiset(pairs: impl IntoIterator<Item = (u32, u32)>) -> BTreeMap<(u32, u32), usize> {
    let mut m = BTreeMap::new();
    for p in pairs {
        *m.entry(p).or_insert(0) += 1;
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Offsets are monotone, start at 0, end at the edge count, and have
    /// exactly `n + 1` entries — in both orientations.
    #[test]
    fn offsets_are_monotone(
        n in 1u32..64,
        edges in prop::collection::vec((any::<u32>(), any::<u32>()), 0..500),
    ) {
        let g = graph_of(n, &edges);
        for csr in [Csr::out_of(&g), Csr::in_of(&g)] {
            let off = csr.offsets();
            prop_assert_eq!(off.len(), n as usize + 1);
            prop_assert_eq!(off[0], 0);
            prop_assert_eq!(*off.last().expect("non-empty"), edges.len());
            prop_assert!(off.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    /// The (vertex, neighbor) multiset of the CSR equals the edge-list
    /// multiset: every parallel edge is preserved, none invented.
    #[test]
    fn neighbor_multiset_equals_edge_list(
        n in 1u32..64,
        edges in prop::collection::vec((any::<u32>(), any::<u32>()), 0..500),
    ) {
        let g = graph_of(n, &edges);
        let reduced: Vec<(u32, u32)> =
            edges.iter().map(|&(s, d)| (s % n, d % n)).collect();

        let out = Csr::out_of(&g);
        let out_pairs = (0..n).flat_map(|v| {
            out.neighbors(VertexId(v)).iter().map(move |&t| (v, t)).collect::<Vec<_>>()
        });
        prop_assert_eq!(multiset(out_pairs), multiset(reduced.iter().copied()));

        let inn = Csr::in_of(&g);
        let in_pairs = (0..n).flat_map(|v| {
            inn.neighbors(VertexId(v)).iter().map(move |&s| (s, v)).collect::<Vec<_>>()
        });
        prop_assert_eq!(multiset(in_pairs), multiset(reduced.iter().copied()));
    }

    /// The counting sort is stable: each vertex's neighbors appear in edge
    /// insertion order, which is the order the streaming scatter replays.
    #[test]
    fn neighbor_order_is_edge_insertion_order(
        n in 1u32..32,
        edges in prop::collection::vec((any::<u32>(), any::<u32>()), 0..300),
    ) {
        let g = graph_of(n, &edges);
        let out = Csr::out_of(&g);
        for v in 0..n {
            let expected: Vec<u32> = edges
                .iter()
                .filter(|&&(s, _)| s % n == v)
                .map(|&(_, d)| d % n)
                .collect();
            prop_assert_eq!(out.neighbors(VertexId(v)), expected.as_slice());
        }
    }

    /// The undirected index lists, per vertex, the stream filtered to the
    /// edges touching it — `s`-side and `d`-side entries interleaved as they
    /// occur, a self-loop twice — so a row is as long as the vertex's in +
    /// out degree. This is the order the symmetric streaming scatter
    /// subtracts in.
    #[test]
    fn undirected_rows_are_the_stream_filtered_by_vertex(
        n in 1u32..32,
        edges in prop::collection::vec((any::<u32>(), any::<u32>()), 0..300),
    ) {
        let g = graph_of(n, &edges);
        let und = Csr::undirected_of(&g);
        prop_assert_eq!(und.edge_count(), 2 * edges.len());
        let (ind, outd) = (g.in_degrees(), g.out_degrees());
        for v in 0..n {
            let mut expected = Vec::new();
            for (s, d) in edges.iter().map(|&(s, d)| (s % n, d % n)) {
                if d == v {
                    expected.push(s);
                }
                if s == v {
                    expected.push(d);
                }
            }
            prop_assert_eq!(und.neighbors(VertexId(v)), expected.as_slice());
            prop_assert_eq!(und.degree(VertexId(v)) as u64, ind[v as usize] + outd[v as usize]);
        }
    }

    /// The external two-pass build over a batched stream reproduces the
    /// in-memory build exactly, for any batch width.
    #[test]
    fn external_build_matches_in_memory(
        n in 1u32..64,
        edges in prop::collection::vec((any::<u32>(), any::<u32>()), 0..500),
        batch in 1usize..80,
    ) {
        let g = graph_of(n, &edges);
        let src: Vec<u32> = edges.iter().map(|&(s, _)| s % n).collect();
        let dst: Vec<u32> = edges.iter().map(|&(_, d)| d % n).collect();
        let scan = || SliceScan::new(n as usize, &src, &dst).with_batch(batch);
        let out = Csr::out_of_scan(&mut scan()).expect("infallible");
        prop_assert_eq!(&out, &Csr::out_of(&g));
        let inn = Csr::in_of_scan(&mut scan()).expect("infallible");
        prop_assert_eq!(&inn, &Csr::in_of(&g));
    }
}
