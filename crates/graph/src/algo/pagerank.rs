//! Parallel PageRank.
//!
//! Pull-based power iteration on the in-adjacency CSR: each vertex gathers
//! `rank[u] / out_degree[u]` from its in-neighbors, which is embarrassingly
//! parallel over vertices (each writes only its own slot) — the rayon
//! `par_iter` pattern from the hpc guides. Dangling-vertex mass is
//! redistributed uniformly so ranks always sum to 1.
//!
//! The two scalar reductions of each iteration (dangling mass, L1 delta) use
//! *blocked* deterministic sums ([`dangling_mass`], [`l1_delta`]): fixed
//! [`SUM_BLOCK`]-wide chunks are summed independently and the partials are
//! combined sequentially. Unlike `par_iter().sum()`, whose reduction tree
//! follows work stealing, the result is bit-identical across thread counts
//! and runs — which is what lets the out-of-core kernel
//! (`crate::ooc::pagerank_ooc`) reproduce this function bit-for-bit.

use crate::csr::Csr;
use crate::graph::{PropertyGraph, VertexId};
use rayon::prelude::*;

/// Block width of the deterministic parallel reductions. Fixed (never
/// derived from the thread count) so the floating-point combination tree —
/// and therefore every rank vector — is a pure function of the input.
pub(crate) const SUM_BLOCK: usize = 4096;

/// Deterministic blocked reduction of the rank mass parked on dangling
/// (out-degree zero) vertices.
pub(crate) fn dangling_mass(rank: &[f64], out_deg: &[u64]) -> f64 {
    let partials: Vec<f64> = rank
        .par_chunks(SUM_BLOCK)
        .zip(out_deg.par_chunks(SUM_BLOCK))
        .map(|(r, d)| r.iter().zip(d).map(|(&r, &d)| if d == 0 { r } else { 0.0 }).sum::<f64>())
        .collect();
    partials.iter().sum()
}

/// Deterministic blocked sum of a value vector — the same fixed-block
/// reduction as [`dangling_mass`], shared by the clustering and spectral
/// kernels so their scalar outputs are thread-count-independent too.
pub(crate) fn blocked_sum(xs: &[f64]) -> f64 {
    let partials: Vec<f64> = xs.par_chunks(SUM_BLOCK).map(|c| c.iter().sum::<f64>()).collect();
    partials.iter().sum()
}

/// Deterministic blocked dot product, for the spectral sketch's
/// Gram-Schmidt and Rayleigh-quotient reductions.
pub(crate) fn blocked_dot(a: &[f64], b: &[f64]) -> f64 {
    let partials: Vec<f64> = a
        .par_chunks(SUM_BLOCK)
        .zip(b.par_chunks(SUM_BLOCK))
        .map(|(x, y)| x.iter().zip(y).map(|(&x, &y)| x * y).sum::<f64>())
        .collect();
    partials.iter().sum()
}

/// Deterministic blocked L1 distance between two rank vectors.
pub(crate) fn l1_delta(a: &[f64], b: &[f64]) -> f64 {
    let partials: Vec<f64> = a
        .par_chunks(SUM_BLOCK)
        .zip(b.par_chunks(SUM_BLOCK))
        .map(|(x, y)| x.iter().zip(y).map(|(&x, &y)| (x - y).abs()).sum::<f64>())
        .collect();
    partials.iter().sum()
}

/// PageRank parameters.
#[derive(Debug, Clone, Copy)]
pub struct PageRankConfig {
    /// Damping factor (the paper's PageRank reference uses 0.85).
    pub damping: f64,
    /// Maximum power iterations.
    pub max_iters: usize,
    /// L1 convergence tolerance.
    pub tolerance: f64,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        PageRankConfig { damping: 0.85, max_iters: 100, tolerance: 1e-9 }
    }
}

impl PageRankConfig {
    /// Checks parameters: `damping` in [0, 1], a finite `tolerance >= 0` (a
    /// NaN would never stop the loop early) and at least one iteration. The
    /// error names the offending field and its value.
    pub fn check(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.damping) {
            return Err(format!("damping must be in [0, 1], got {}", self.damping));
        }
        if !(self.tolerance >= 0.0 && self.tolerance.is_finite()) {
            return Err(format!("tolerance must be finite and >= 0, got {}", self.tolerance));
        }
        if self.max_iters == 0 {
            return Err("max_iters must be at least 1, got 0".into());
        }
        Ok(())
    }
}

/// Computes PageRank; returns one score per vertex, summing to 1.
///
/// Returns an empty vector for an empty graph.
pub fn pagerank<V, E>(g: &PropertyGraph<V, E>, cfg: &PageRankConfig) -> Vec<f64> {
    let n = g.vertex_count();
    if n == 0 {
        return Vec::new();
    }
    let in_csr = Csr::in_of(g);
    let out_deg = g.out_degrees();
    let inv_n = 1.0 / n as f64;

    let mut rank = vec![inv_n; n];
    let mut next = vec![0.0f64; n];
    for _ in 0..cfg.max_iters {
        // Mass parked on dangling vertices is spread uniformly.
        let dangling = dangling_mass(&rank, &out_deg);
        let base = (1.0 - cfg.damping) * inv_n + cfg.damping * dangling * inv_n;

        next.par_iter_mut().enumerate().for_each(|(v, slot)| {
            let gathered: f64 = in_csr
                .neighbors(VertexId(v as u32))
                .iter()
                .map(|&u| rank[u as usize] / out_deg[u as usize] as f64)
                .sum();
            *slot = base + cfg.damping * gathered;
        });

        let delta = l1_delta(&rank, &next);
        std::mem::swap(&mut rank, &mut next);
        if delta < cfg.tolerance {
            break;
        }
    }
    rank
}

/// Sequential reference implementation, kept for the parallel-vs-sequential
/// ablation bench and for differential testing.
pub fn pagerank_sequential<V, E>(g: &PropertyGraph<V, E>, cfg: &PageRankConfig) -> Vec<f64> {
    let n = g.vertex_count();
    if n == 0 {
        return Vec::new();
    }
    let in_csr = Csr::in_of(g);
    let out_deg = g.out_degrees();
    let inv_n = 1.0 / n as f64;
    let mut rank = vec![inv_n; n];
    let mut next = vec![0.0f64; n];
    for _ in 0..cfg.max_iters {
        let dangling: f64 =
            rank.iter().zip(out_deg.iter()).map(|(&r, &d)| if d == 0 { r } else { 0.0 }).sum();
        let base = (1.0 - cfg.damping) * inv_n + cfg.damping * dangling * inv_n;
        for (v, slot) in next.iter_mut().enumerate() {
            let gathered: f64 = in_csr
                .neighbors(VertexId(v as u32))
                .iter()
                .map(|&u| rank[u as usize] / out_deg[u as usize] as f64)
                .sum();
            *slot = base + cfg.damping * gathered;
        }
        let delta: f64 = rank.iter().zip(next.iter()).map(|(&a, &b)| (a - b).abs()).sum();
        std::mem::swap(&mut rank, &mut next);
        if delta < cfg.tolerance {
            break;
        }
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(n: usize) -> PropertyGraph<(), ()> {
        let mut g = PropertyGraph::new();
        let v: Vec<_> = (0..n).map(|_| g.add_vertex(())).collect();
        for i in 0..n {
            g.add_edge(v[i], v[(i + 1) % n], ());
        }
        g
    }

    #[test]
    fn cycle_is_uniform() {
        let g = cycle(8);
        let pr = pagerank(&g, &PageRankConfig::default());
        for &r in &pr {
            assert!((r - 0.125).abs() < 1e-9, "rank {r}");
        }
    }

    #[test]
    fn ranks_sum_to_one() {
        // Star with dangling leaves exercises the dangling-mass path.
        let mut g: PropertyGraph<(), ()> = PropertyGraph::new();
        let hub = g.add_vertex(());
        for _ in 0..5 {
            let leaf = g.add_vertex(());
            g.add_edge(hub, leaf, ());
        }
        let pr = pagerank(&g, &PageRankConfig::default());
        let sum: f64 = pr.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
    }

    #[test]
    fn sink_hub_accumulates_rank() {
        // Everyone points at vertex 0.
        let mut g: PropertyGraph<(), ()> = PropertyGraph::new();
        let hub = g.add_vertex(());
        for _ in 0..9 {
            let v = g.add_vertex(());
            g.add_edge(v, hub, ());
        }
        let pr = pagerank(&g, &PageRankConfig::default());
        assert!(pr[0] > pr[1] * 5.0, "hub {} vs leaf {}", pr[0], pr[1]);
    }

    #[test]
    fn matches_hand_computed_two_node() {
        // a <-> b symmetric: both 0.5.
        let mut g: PropertyGraph<(), ()> = PropertyGraph::new();
        let a = g.add_vertex(());
        let b = g.add_vertex(());
        g.add_edge(a, b, ());
        g.add_edge(b, a, ());
        let pr = pagerank(&g, &PageRankConfig::default());
        assert!((pr[0] - 0.5).abs() < 1e-9);
        assert!((pr[1] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn parallel_equals_sequential() {
        // A scale-free-ish random graph; both implementations must agree.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(77);
        let mut g: PropertyGraph<(), ()> = PropertyGraph::new();
        let v: Vec<_> = (0..200).map(|_| g.add_vertex(())).collect();
        for _ in 0..1000 {
            let s = rng.gen_range(0..200);
            let t = rng.gen_range(0..(s + 1));
            g.add_edge(v[s], v[t], ());
        }
        let cfg = PageRankConfig::default();
        let par = pagerank(&g, &cfg);
        let seq = pagerank_sequential(&g, &cfg);
        for (a, b) in par.iter().zip(seq.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_graph_empty_ranks() {
        let g: PropertyGraph<(), ()> = PropertyGraph::new();
        assert!(pagerank(&g, &PageRankConfig::default()).is_empty());
    }

    #[test]
    fn multi_edges_weight_transitions() {
        // a has 3 parallel edges to b and 1 to c: b should receive ~3x c's
        // share of a's rank.
        let mut g: PropertyGraph<(), ()> = PropertyGraph::new();
        let a = g.add_vertex(());
        let b = g.add_vertex(());
        let c = g.add_vertex(());
        for _ in 0..3 {
            g.add_edge(a, b, ());
        }
        g.add_edge(a, c, ());
        // Return edges so nothing dangles.
        g.add_edge(b, a, ());
        g.add_edge(c, a, ());
        let pr = pagerank(&g, &PageRankConfig::default());
        assert!(pr[1] > pr[2] * 1.5, "b {} vs c {}", pr[1], pr[2]);
    }
}
