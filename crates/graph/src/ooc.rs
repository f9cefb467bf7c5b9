//! Out-of-core analytics: kernels that consume a *streamed* edge list
//! instead of a materialized [`PropertyGraph`](crate::graph::PropertyGraph).
//!
//! The paper's Section V evaluates veracity (degree and PageRank
//! distribution distance) on multi-million-edge graphs; once generation
//! streams straight into chunked store files, the evaluation side must be
//! bounded-memory too. The [`EdgeScan`] trait abstracts "a graph I can
//! re-scan in a fixed record order": `csb-store`'s reader implements it by
//! projecting the `SRC`/`DST` columns chunk by chunk, and [`SliceScan`] /
//! [`GraphScan`] provide the in-memory reference used by the differential
//! conformance suite.
//!
//! **Correctness contract.** Every kernel here is *bit-for-bit* equal to its
//! in-memory counterpart on the same logical graph, for any batching of the
//! same record stream:
//!
//! * contributions to a vertex accumulate in stream order, exactly the order
//!   the stable counting-sort CSR ([`Csr::in_of`]) yields them;
//! * scalar reductions reuse the deterministic blocked sums of
//!   [`pagerank`](crate::algo::pagerank) ([`SUM_BLOCK`]-wide chunks,
//!   partials combined sequentially), so the result does not depend on the
//!   rayon thread count;
//! * over a stream, a kernel scatters serially, in stream order, visiting
//!   each edge once; in memory, the same contributions are *pulled* row by
//!   row on the pool from a stable counting-sort index ([`Csr::in_of`],
//!   [`Csr::undirected_of`]), which lists each slot's contributions in that
//!   same order. (A scatter split by destination range also keeps the order,
//!   but every part must re-read the whole batch: at pool width 2 it measured
//!   about twice as slow as the serial loop.)
//!
//! Scratch memory is O(vertices + batch): the rank/degree vectors plus
//! whatever the scan buffers per batch. Each kernel reports its footprint
//! through the `ooc.peak_scratch_bytes` gauge and wraps its passes in
//! `ooc.pass1` (counting/degree) and `ooc.pass2` (placement/power-iteration)
//! spans.
//!
//! [`SUM_BLOCK`]: crate::algo::pagerank
//! [`Csr::in_of`]: crate::csr::Csr::in_of
//! [`Csr::undirected_of`]: crate::csr::Csr::undirected_of

use crate::algo::degree::DegreeDistributions;
use crate::algo::pagerank::{dangling_mass, l1_delta, PageRankConfig};
use crate::graph::PropertyGraph;
use csb_stats::EmpiricalDistribution;
use rayon::prelude::*;
use std::convert::Infallible;

/// A graph served as a re-scannable stream of `(src, dst)` edge batches.
///
/// Implementations must replay the *same* record stream on every scan (the
/// PageRank kernel re-scans once per power iteration); batch boundaries are
/// arbitrary and carry no meaning.
pub trait EdgeScan {
    /// Scan failure (I/O, corruption). [`Infallible`] for in-memory scans.
    type Error;

    /// Number of vertices in the logical graph. Edge endpoints are ids in
    /// `0..vertex_count()`.
    fn vertex_count(&mut self) -> Result<usize, Self::Error>;

    /// Number of edges in the logical graph.
    fn edge_count(&mut self) -> Result<u64, Self::Error>;

    /// Streams every edge, in stream order, as `(src, dst)` batches.
    fn scan_edges(&mut self, f: &mut dyn FnMut(&[u32], &[u32])) -> Result<(), Self::Error>;

    /// Streams only the sources. A columnar store overrides this with a
    /// single-column projection; the default reads both endpoints.
    fn scan_sources(&mut self, f: &mut dyn FnMut(&[u32])) -> Result<(), Self::Error> {
        self.scan_edges(&mut |src, _| f(src))
    }

    /// Streams only the targets; see [`EdgeScan::scan_sources`].
    fn scan_targets(&mut self, f: &mut dyn FnMut(&[u32])) -> Result<(), Self::Error> {
        self.scan_edges(&mut |_, dst| f(dst))
    }

    /// Upper bound on the bytes this scan buffers per batch, counted into
    /// the kernels' `ooc.peak_scratch_bytes` gauge. Zero for borrowed
    /// in-memory scans.
    fn scratch_bytes(&self) -> u64 {
        0
    }
}

/// In-memory [`EdgeScan`] over borrowed endpoint slices, re-batched at a
/// configurable width — the conformance suite's tool for proving kernels are
/// batching-invariant.
#[derive(Debug, Clone)]
pub struct SliceScan<'a> {
    n: usize,
    src: &'a [u32],
    dst: &'a [u32],
    batch: usize,
}

impl<'a> SliceScan<'a> {
    /// A scan over `n` vertices and the parallel `src`/`dst` edge arrays.
    ///
    /// # Panics
    /// Panics if the arrays differ in length.
    pub fn new(n: usize, src: &'a [u32], dst: &'a [u32]) -> Self {
        assert_eq!(src.len(), dst.len(), "src/dst length mismatch");
        SliceScan { n, src, dst, batch: usize::MAX }
    }

    /// Overrides the batch width (default: one batch for the whole stream).
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }
}

impl EdgeScan for SliceScan<'_> {
    type Error = Infallible;

    fn vertex_count(&mut self) -> Result<usize, Infallible> {
        Ok(self.n)
    }

    fn edge_count(&mut self) -> Result<u64, Infallible> {
        Ok(self.src.len() as u64)
    }

    fn scan_edges(&mut self, f: &mut dyn FnMut(&[u32], &[u32])) -> Result<(), Infallible> {
        let batch = self.batch.min(self.src.len().max(1));
        for (s, d) in self.src.chunks(batch).zip(self.dst.chunks(batch)) {
            f(s, d);
        }
        Ok(())
    }
}

/// Owned [`EdgeScan`] snapshot of a [`PropertyGraph`]'s topology — the
/// in-memory side of the differential suite.
#[derive(Debug, Clone)]
pub struct GraphScan {
    n: usize,
    src: Vec<u32>,
    dst: Vec<u32>,
    batch: usize,
}

impl GraphScan {
    /// Snapshots the topology of `g`.
    pub fn of<V, E>(g: &PropertyGraph<V, E>) -> Self {
        GraphScan {
            n: g.vertex_count(),
            src: g.edge_sources().iter().map(|v| v.0).collect(),
            dst: g.edge_targets().iter().map(|v| v.0).collect(),
            batch: usize::MAX,
        }
    }

    /// Overrides the batch width (default: one batch for the whole stream).
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }
}

impl EdgeScan for GraphScan {
    type Error = Infallible;

    fn vertex_count(&mut self) -> Result<usize, Infallible> {
        Ok(self.n)
    }

    fn edge_count(&mut self) -> Result<u64, Infallible> {
        Ok(self.src.len() as u64)
    }

    fn scan_edges(&mut self, f: &mut dyn FnMut(&[u32], &[u32])) -> Result<(), Infallible> {
        SliceScan::new(self.n, &self.src, &self.dst).with_batch(self.batch).scan_edges(f)
    }
}

/// Per-vertex in- and out-degree counts from one streaming pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegreeCounts {
    /// In-degree of each vertex; equals `PropertyGraph::in_degrees`.
    pub in_deg: Vec<u64>,
    /// Out-degree of each vertex; equals `PropertyGraph::out_degrees`.
    pub out_deg: Vec<u64>,
}

impl DegreeCounts {
    /// Total (in + out) degree per vertex — the degree-veracity input.
    pub fn total(&self) -> Vec<u64> {
        self.in_deg.iter().zip(self.out_deg.iter()).map(|(a, b)| a + b).collect()
    }
}

/// Counts every vertex's in- and out-degree in a single edge scan.
pub fn degree_counts_ooc<S: EdgeScan>(scan: &mut S) -> Result<DegreeCounts, S::Error> {
    let _span = csb_obs::span_cat("ooc.pass1", "ooc");
    let n = scan.vertex_count()?;
    let mut in_deg = vec![0u64; n];
    let mut out_deg = vec![0u64; n];
    scan.scan_edges(&mut |src, dst| {
        for &s in src {
            out_deg[s as usize] += 1;
        }
        for &d in dst {
            in_deg[d as usize] += 1;
        }
    })?;
    note_peak_scratch(16 * n as u64 + scan.scratch_bytes());
    Ok(DegreeCounts { in_deg, out_deg })
}

/// Out-of-core [`degree_distribution`](crate::algo::degree_distribution):
/// identical distributions, O(vertices + batch) scratch.
///
/// # Panics
/// Panics on an empty graph, like the in-memory version.
pub fn degree_distribution_ooc<S: EdgeScan>(scan: &mut S) -> Result<DegreeDistributions, S::Error> {
    let counts = degree_counts_ooc(scan)?;
    assert!(!counts.in_deg.is_empty(), "degree distribution of empty graph");
    Ok(DegreeDistributions {
        in_degree: EmpiricalDistribution::from_samples(counts.in_deg),
        out_degree: EmpiricalDistribution::from_samples(counts.out_deg),
    })
}

/// Out-of-core [`pagerank`](crate::algo::pagerank::pagerank): bit-identical
/// ranks without ever materializing an adjacency index.
///
/// Re-scans the edge stream once per power iteration, scattering
/// `rank[src] / out_degree[src]` into the next-rank vector. Because the
/// scatter visits edges in stream order and the stable counting-sort CSR
/// lists each vertex's in-neighbors in that same order, every per-vertex
/// accumulation performs the identical floating-point operation sequence as
/// the in-memory pull gather. Scratch: three O(vertices) vectors plus the
/// scan's batch buffers.
pub fn pagerank_ooc<S: EdgeScan>(scan: &mut S, cfg: &PageRankConfig) -> Result<Vec<f64>, S::Error> {
    let n = scan.vertex_count()?;
    if n == 0 {
        return Ok(Vec::new());
    }
    let mut out_deg = vec![0u64; n];
    {
        let _span = csb_obs::span_cat("ooc.pass1", "ooc");
        scan.scan_sources(&mut |src| {
            for &s in src {
                out_deg[s as usize] += 1;
            }
        })?;
    }
    let inv_n = 1.0 / n as f64;
    let mut rank = vec![inv_n; n];
    let mut next = vec![0.0f64; n];
    note_peak_scratch(24 * n as u64 + scan.scratch_bytes());
    for _ in 0..cfg.max_iters {
        let dangling = dangling_mass(&rank, &out_deg);
        let base = (1.0 - cfg.damping) * inv_n + cfg.damping * dangling * inv_n;
        next.fill(0.0);
        {
            let _span = csb_obs::span_cat("ooc.pass2", "ooc");
            let (rank_ref, deg_ref) = (&rank, &out_deg);
            scan.scan_edges(&mut |src, dst| scatter_batch(&mut next, rank_ref, deg_ref, src, dst))?;
        }
        next.par_iter_mut().for_each(|slot| *slot = base + cfg.damping * *slot);
        let delta = l1_delta(&rank, &next);
        std::mem::swap(&mut rank, &mut next);
        if delta < cfg.tolerance {
            break;
        }
    }
    Ok(rank)
}

/// Accumulates one batch of contributions into `next`, serially and in
/// stream order — the order [`Csr::in_of`](crate::csr::Csr::in_of) lists each
/// vertex's in-neighbors, which is what makes the ranks bit-identical to the
/// in-memory pull.
fn scatter_batch(next: &mut [f64], rank: &[f64], out_deg: &[u64], src: &[u32], dst: &[u32]) {
    for (&s, &d) in src.iter().zip(dst) {
        next[d as usize] += rank[s as usize] / out_deg[s as usize] as f64;
    }
}

/// Raises the `ooc.peak_scratch_bytes` gauge to `bytes` if it is below —
/// the bound `tests/ooc_conformance.rs` asserts stays O(vertices + chunk).
pub(crate) fn note_peak_scratch(bytes: u64) {
    if !csb_obs::enabled() {
        return;
    }
    let gauge = csb_obs::metrics::gauge("ooc.peak_scratch_bytes");
    if gauge.get() < bytes as i64 {
        gauge.set(bytes as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::degree_distribution;
    use crate::algo::pagerank::{pagerank, pagerank_sequential};
    use crate::graph::PropertyGraph;
    use rand::{Rng, SeedableRng};

    fn random_graph(seed: u64, n: usize, e: usize) -> PropertyGraph<(), ()> {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut g: PropertyGraph<(), ()> = PropertyGraph::new();
        let v: Vec<_> = (0..n).map(|_| g.add_vertex(())).collect();
        for _ in 0..e {
            let s = rng.gen_range(0..n);
            let t = rng.gen_range(0..n);
            g.add_edge(v[s], v[t], ());
        }
        g
    }

    #[test]
    fn graph_scan_counts_match_graph() {
        let g = random_graph(3, 50, 300);
        let mut scan = GraphScan::of(&g).with_batch(7);
        assert_eq!(scan.vertex_count().unwrap(), 50);
        assert_eq!(scan.edge_count().unwrap(), 300);
        let counts = degree_counts_ooc(&mut scan).unwrap();
        assert_eq!(counts.in_deg, g.in_degrees());
        assert_eq!(counts.out_deg, g.out_degrees());
    }

    #[test]
    fn pagerank_ooc_is_bit_identical_to_in_memory() {
        let g = random_graph(11, 120, 700);
        let cfg = PageRankConfig::default();
        let mem = pagerank(&g, &cfg);
        for batch in [1usize, 3, 64, 1024, usize::MAX] {
            let ooc = pagerank_ooc(&mut GraphScan::of(&g).with_batch(batch), &cfg).unwrap();
            assert_eq!(mem.len(), ooc.len());
            for (a, b) in mem.iter().zip(ooc.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "batch {batch}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn pagerank_ooc_close_to_sequential_reference() {
        let g = random_graph(5, 80, 400);
        let cfg = PageRankConfig::default();
        let seq = pagerank_sequential(&g, &cfg);
        let ooc = pagerank_ooc(&mut GraphScan::of(&g), &cfg).unwrap();
        for (a, b) in seq.iter().zip(ooc.iter()) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn degree_distribution_ooc_matches_in_memory() {
        let g = random_graph(17, 40, 200);
        let mem = degree_distribution(&g);
        let ooc = degree_distribution_ooc(&mut GraphScan::of(&g).with_batch(13)).unwrap();
        assert_eq!(mem.in_degree.support(), ooc.in_degree.support());
        assert_eq!(mem.in_degree.weights(), ooc.in_degree.weights());
        assert_eq!(mem.out_degree.support(), ooc.out_degree.support());
        assert_eq!(mem.out_degree.weights(), ooc.out_degree.weights());
    }

    #[test]
    fn empty_graph_pagerank_ooc_is_empty() {
        let mut scan = SliceScan::new(0, &[], &[]);
        assert!(pagerank_ooc(&mut scan, &PageRankConfig::default()).unwrap().is_empty());
    }

    #[test]
    #[should_panic(expected = "empty graph")]
    fn empty_graph_degree_distribution_ooc_panics() {
        let mut scan = SliceScan::new(0, &[], &[]);
        let _ = degree_distribution_ooc(&mut scan);
    }

    #[test]
    fn dangling_and_disconnected_vertices_agree() {
        // Star into dangling leaves plus isolated vertices.
        let mut g: PropertyGraph<(), ()> = PropertyGraph::new();
        let hub = g.add_vertex(());
        for _ in 0..5 {
            let leaf = g.add_vertex(());
            g.add_edge(hub, leaf, ());
        }
        for _ in 0..3 {
            g.add_vertex(());
        }
        let cfg = PageRankConfig::default();
        let mem = pagerank(&g, &cfg);
        let ooc = pagerank_ooc(&mut GraphScan::of(&g).with_batch(2), &cfg).unwrap();
        for (a, b) in mem.iter().zip(ooc.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
