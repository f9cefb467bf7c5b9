//! Compressed sparse row adjacency index.
//!
//! The flat edge list is ideal for PGPBA's edge sampling but poor for
//! traversal; kernels (PageRank, BFS, Brandes, the spectral sketch) build a
//! [`Csr`] first: `offsets[v]..offsets[v+1]` indexes `targets` with `v`'s
//! neighbors in one orientation — out, in, or both ([`Csr::undirected_of`]).
//!
//! Every build is the same *stable* counting sort, so a row lists its
//! neighbors in edge-stream order. That is what lets an in-memory kernel
//! pull each row on the pool and still perform, per vertex, the exact
//! floating-point sequence of the serial streaming scatter (`crate::ooc`).

use crate::graph::{PropertyGraph, VertexId};
use crate::ooc::EdgeScan;

/// CSR adjacency over `n` vertices. Multi-edges are preserved (a neighbor
/// appears once per parallel edge).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    offsets: Vec<usize>,
    targets: Vec<u32>,
}

impl Csr {
    /// Builds the *out*-adjacency of the graph.
    pub fn out_of<V, E>(g: &PropertyGraph<V, E>) -> Self {
        Self::build(g.vertex_count(), edge_pairs(g))
    }

    /// Builds the *in*-adjacency (reverse edges) of the graph.
    pub fn in_of<V, E>(g: &PropertyGraph<V, E>) -> Self {
        Self::build(g.vertex_count(), edge_pairs(g).map(|(s, d)| (d, s)))
    }

    /// Builds the *undirected multigraph* adjacency: every edge `(s, d)`, in
    /// stream order, puts `s` into row `d` and then `d` into row `s`, so row
    /// `v` is the stream filtered to the edges touching `v` and its length is
    /// `v`'s total (in + out) degree. A self-loop lands twice in its own row
    /// and repeated edges repeat — unlike clustering's sorted, deduplicated
    /// [`UndirectedCsr`](crate::algo::clustering::UndirectedCsr).
    /// [`Csr::edge_count`] is twice the graph's.
    pub fn undirected_of<V, E>(g: &PropertyGraph<V, E>) -> Self {
        Self::build(g.vertex_count(), edge_pairs(g).flat_map(|(s, d)| [(d, s), (s, d)]))
    }

    /// Builds the *out*-adjacency from a streamed edge list (e.g. a
    /// `csb-store` file), never holding both endpoint arrays in memory.
    ///
    /// Two-pass external counting sort: pass 1 streams only the sources and
    /// counts per-vertex degrees (`ooc.pass1` span); the prefix sum turns the
    /// counts into offsets; pass 2 streams full edges and drops each target
    /// into its cursor slot (`ooc.pass2` span). Because the cursor placement
    /// consumes edges in stream order, the neighbor order per vertex is
    /// identical to [`Csr::out_of`] on the materialized graph whenever the
    /// stream replays the graph's edge order — the in-memory build is the
    /// same stable counting sort. Scratch beyond the output CSR itself is
    /// one `usize` cursor array (O(vertices)) plus the scan's batch buffers.
    pub fn out_of_scan<S: EdgeScan>(scan: &mut S) -> Result<Self, S::Error> {
        Self::from_scan(scan, false)
    }

    /// Builds the *in*-adjacency (reverse edges) from a streamed edge list;
    /// see [`Csr::out_of_scan`].
    pub fn in_of_scan<S: EdgeScan>(scan: &mut S) -> Result<Self, S::Error> {
        Self::from_scan(scan, true)
    }

    fn from_scan<S: EdgeScan>(scan: &mut S, reverse: bool) -> Result<Self, S::Error> {
        let n = scan.vertex_count()?;
        let mut offsets = vec![0usize; n + 1];
        {
            let _span = csb_obs::span_cat("ooc.pass1", "ooc");
            let count = &mut |keys: &[u32]| {
                for &k in keys {
                    offsets[k as usize + 1] += 1;
                }
            };
            if reverse {
                scan.scan_targets(count)?;
            } else {
                scan.scan_sources(count)?;
            }
        }
        for i in 1..=n {
            offsets[i] += offsets[i - 1];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0u32; *offsets.last().unwrap_or(&0)];
        {
            let _span = csb_obs::span_cat("ooc.pass2", "ooc");
            scan.scan_edges(&mut |src, dst| {
                let (from, to) = if reverse { (dst, src) } else { (src, dst) };
                for (&f, &t) in from.iter().zip(to) {
                    let slot = cursor[f as usize];
                    targets[slot] = t;
                    cursor[f as usize] += 1;
                }
            })?;
        }
        crate::ooc::note_peak_scratch(
            8 * (n as u64 + 1) // cursor array; offsets+targets are the output
                + scan.scratch_bytes(),
        );
        Ok(Csr { offsets, targets })
    }

    /// Stable counting sort of `(row, neighbor)` pairs: one pass counts, one
    /// places, so each row keeps the order the pairs arrive in.
    fn build(n: usize, pairs: impl Iterator<Item = (VertexId, VertexId)> + Clone) -> Self {
        let mut offsets = vec![0usize; n + 1];
        for (row, _) in pairs.clone() {
            offsets[row.index() + 1] += 1;
        }
        for i in 1..=n {
            offsets[i] += offsets[i - 1];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0u32; offsets[n]];
        for (row, neighbor) in pairs {
            let slot = cursor[row.index()];
            targets[slot] = neighbor.0;
            cursor[row.index()] += 1;
        }
        Csr { offsets, targets }
    }

    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of stored edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Neighbors of `v` (with multiplicity).
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[u32] {
        &self.targets[self.offsets[v.index()]..self.offsets[v.index() + 1]]
    }

    /// Degree of `v` in this orientation.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.offsets[v.index() + 1] - self.offsets[v.index()]
    }

    /// The offsets array (length `n+1`, monotone, ends at `edge_count`).
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The concatenated neighbor array indexed by [`Csr::offsets`].
    #[inline]
    pub fn targets(&self) -> &[u32] {
        &self.targets
    }
}

/// The graph's `(source, target)` pairs in edge-stream order.
fn edge_pairs<V, E>(
    g: &PropertyGraph<V, E>,
) -> impl Iterator<Item = (VertexId, VertexId)> + Clone + '_ {
    g.edge_sources().iter().copied().zip(g.edge_targets().iter().copied())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PropertyGraph<(), ()> {
        let mut g = PropertyGraph::new();
        let v: Vec<VertexId> = (0..4).map(|_| g.add_vertex(())).collect();
        g.add_edge(v[0], v[1], ());
        g.add_edge(v[0], v[2], ());
        g.add_edge(v[0], v[1], ()); // parallel
        g.add_edge(v[2], v[3], ());
        g.add_edge(v[3], v[0], ());
        g
    }

    #[test]
    fn out_adjacency() {
        let g = sample();
        let csr = Csr::out_of(&g);
        assert_eq!(csr.vertex_count(), 4);
        assert_eq!(csr.edge_count(), 5);
        let mut n0 = csr.neighbors(VertexId(0)).to_vec();
        n0.sort_unstable();
        assert_eq!(n0, vec![1, 1, 2]);
        assert_eq!(csr.degree(VertexId(1)), 0);
        assert_eq!(csr.neighbors(VertexId(3)), &[0]);
    }

    #[test]
    fn in_adjacency_is_reverse() {
        let g = sample();
        let csr = Csr::in_of(&g);
        let mut n1 = csr.neighbors(VertexId(1)).to_vec();
        n1.sort_unstable();
        assert_eq!(n1, vec![0, 0]);
        assert_eq!(csr.neighbors(VertexId(0)), &[3]);
    }

    #[test]
    fn undirected_rows_keep_stream_order() {
        let mut g = sample();
        g.add_edge(VertexId(1), VertexId(1), ()); // self-loop
        let csr = Csr::undirected_of(&g);
        assert_eq!(csr.edge_count(), 2 * g.edge_count());
        // Stream: 0>1, 0>2, 0>1 (repeated), 2>3, 3>0, 1>1.
        assert_eq!(csr.neighbors(VertexId(0)), &[1, 2, 1, 3]);
        assert_eq!(csr.neighbors(VertexId(1)), &[0, 0, 1, 1]);
        assert_eq!(csr.neighbors(VertexId(2)), &[0, 3]);
        assert_eq!(csr.neighbors(VertexId(3)), &[2, 0]);
    }

    #[test]
    fn offsets_invariants() {
        let g = sample();
        let csr = Csr::out_of(&g);
        let off = csr.offsets();
        assert_eq!(off.len(), g.vertex_count() + 1);
        assert_eq!(off[0], 0);
        assert_eq!(*off.last().expect("non-empty"), g.edge_count());
        assert!(off.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn degrees_match_graph() {
        let g = sample();
        let out = Csr::out_of(&g);
        let ind = Csr::in_of(&g);
        let od = g.out_degrees();
        let id = g.in_degrees();
        for v in g.vertices() {
            assert_eq!(out.degree(v) as u64, od[v.index()]);
            assert_eq!(ind.degree(v) as u64, id[v.index()]);
        }
    }

    #[test]
    fn empty_graph_csr() {
        let g: PropertyGraph<(), ()> = PropertyGraph::new();
        let csr = Csr::out_of(&g);
        assert_eq!(csr.vertex_count(), 0);
        assert_eq!(csr.edge_count(), 0);
    }
}
