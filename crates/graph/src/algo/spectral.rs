//! Spectral sketch: the top eigenvalues of the symmetric normalized
//! Laplacian, estimated by deflated power iteration over the edge stream.
//!
//! The graph is treated as an undirected multigraph: every directed edge
//! `(s, d)` contributes weight `1 / sqrt(deg(s) * deg(d))` to both `A[s][d]`
//! and `A[d][s]` of the normalized adjacency `S = D^-1/2 A D^-1/2`, with
//! `deg` the total (in + out) degree; the operator is `L = I - S`, whose
//! eigenvalues lie in `[0, 2]` and are scale-free — comparable across graph
//! sizes, which is what a cross-generator benchmark needs. Isolated
//! vertices have an empty `S` row and therefore eigenvalue 1 under this
//! convention.
//!
//! **Determinism.** The sketch is a pure function of the logical graph:
//! start vectors come from a fixed splitmix64 stream (no RNG state), the
//! iteration count is fixed (no data-dependent early exit) and every dot
//! product / norm uses the fixed-block deterministic reductions shared with
//! PageRank. The two entry points run one power iteration
//! (`deflated_power_iteration`) and differ only in the matvec it is handed:
//! [`spectral_sketch_ooc`] scatters each edge's two contributions serially,
//! in stream order; [`spectral_sketch`] pulls each row of
//! [`Csr::undirected_of`] on the pool. The index is a stable counting sort,
//! so a row lists its contributions in stream order, and `w[s] * w[d]`
//! commutes exactly — each slot sees the same subtractions in the same order
//! either way, for any batch width and thread count. The conformance suite
//! (`tests/ooc_conformance.rs`) proves the pair bit-for-bit, as it does for
//! PageRank's scatter and pull.

use crate::algo::pagerank::blocked_dot;
use crate::csr::Csr;
use crate::graph::{PropertyGraph, VertexId};
use crate::ooc::{degree_counts_ooc, note_peak_scratch, EdgeScan};
use rayon::prelude::*;
use std::convert::Infallible;

/// Spectral sketch parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpectralConfig {
    /// How many top eigenvalues to estimate (capped at the vertex count).
    pub eigenvalues: usize,
    /// Power iterations per eigenpair — fixed, never data-dependent, so the
    /// sketch stays deterministic.
    pub iterations: usize,
    /// Seed of the deterministic start-vector stream.
    pub seed: u64,
}

impl Default for SpectralConfig {
    fn default() -> Self {
        SpectralConfig { eigenvalues: 6, iterations: 30, seed: 0x5BEC_14A1 }
    }
}

/// splitmix64 — the stateless mixer behind the start vectors.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Pseudo-random start vector for eigenpair `j`: each slot is a pure
/// function of `(seed, j, index)`, uniform in `[-0.5, 0.5)`.
fn start_vector(n: usize, seed: u64, j: u64) -> Vec<f64> {
    let base = splitmix(seed ^ j.wrapping_mul(0xA076_1D64_78BD_642F));
    (0..n)
        .into_par_iter()
        .map(|i| (splitmix(base.wrapping_add(i as u64)) >> 11) as f64 / (1u64 << 53) as f64 - 0.5)
        .collect()
}

/// `1 / sqrt(deg)` per vertex, zero for isolated ones: the `D^-1/2` of the
/// normalized adjacency.
fn inv_sqrt_degrees(deg: impl Iterator<Item = u64>) -> Vec<f64> {
    deg.map(|d| if d > 0 { 1.0 / (d as f64).sqrt() } else { 0.0 }).collect()
}

/// Applies the normalized-adjacency subtraction of one batch, serially and
/// in stream order: for each edge, `y[d] -= c * x[s]` then `y[s] -= c * x[d]`
/// with `c = w[s] * w[d]`.
fn scatter_sym(y: &mut [f64], x: &[f64], w: &[f64], src: &[u32], dst: &[u32]) {
    for (&s, &d) in src.iter().zip(dst) {
        let (s, d) = (s as usize, d as usize);
        let c = w[s] * w[d];
        y[d] -= c * x[s];
        y[s] -= c * x[d];
    }
}

/// One Laplacian matvec `y = x - S x` over the edge stream.
fn lap_matvec_scan<S: EdgeScan>(
    scan: &mut S,
    x: &[f64],
    w: &[f64],
    y: &mut [f64],
) -> Result<(), S::Error> {
    let _span = csb_obs::span_cat("ooc.pass2", "ooc");
    y.copy_from_slice(x);
    scan.scan_edges(&mut |src, dst| scatter_sym(y, x, w, src, dst))?;
    csb_obs::metrics::counter_add("ooc.spectral_matvecs", 1);
    Ok(())
}

/// The same matvec pulled from the undirected index: slot `v` starts at
/// `x[v]` and subtracts its row's contributions in row (= stream) order —
/// the sequence [`scatter_sym`] applies to it, one slot per pool task.
fn lap_matvec_pull(adj: &Csr, x: &[f64], w: &[f64], y: &mut [f64]) {
    y.par_iter_mut().enumerate().for_each(|(v, slot)| {
        let mut acc = x[v];
        for &u in adj.neighbors(VertexId(v as u32)) {
            acc -= (w[v] * w[u as usize]) * x[u as usize];
        }
        *slot = acc;
    });
}

/// Projects `x` off `basis` (sequential Gram-Schmidt, deterministic blocked
/// dots) and normalizes it. Returns false when `x` vanished.
fn orthonormalize(x: &mut [f64], basis: &[Vec<f64>]) -> bool {
    for b in basis {
        let c = blocked_dot(x, b);
        x.par_iter_mut().zip(b.par_iter()).for_each(|(xi, &bi)| *xi -= c * bi);
    }
    let norm = blocked_dot(x, x).sqrt();
    if norm <= 1e-12 {
        return false;
    }
    let inv = 1.0 / norm;
    x.par_iter_mut().for_each(|v| *v *= inv);
    true
}

/// Deflated power iteration for the `cfg.eigenvalues` (capped at `n`)
/// largest eigenvalues of the operator `matvec(x, y)` applies (`y = L x`) on
/// `n`-vectors, sorted descending with a deterministic total order. Runs
/// `cfg.iterations + 1` matvecs per eigenpair that stays alive.
fn deflated_power_iteration<E>(
    n: usize,
    cfg: &SpectralConfig,
    mut matvec: impl FnMut(&[f64], &mut [f64]) -> Result<(), E>,
) -> Result<Vec<f64>, E> {
    let k = cfg.eigenvalues.min(n);
    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(k);
    let mut evals = Vec::with_capacity(k);
    let mut y = vec![0.0f64; n];
    for j in 0..k {
        let mut x = start_vector(n, cfg.seed, j as u64);
        let mut alive = orthonormalize(&mut x, &basis);
        if alive {
            for _ in 0..cfg.iterations {
                matvec(&x, &mut y)?;
                std::mem::swap(&mut x, &mut y);
                if !orthonormalize(&mut x, &basis) {
                    alive = false;
                    break;
                }
            }
        }
        if alive {
            matvec(&x, &mut y)?;
            evals.push(blocked_dot(&x, &y));
        } else {
            // The remaining subspace is numerically exhausted (start vector
            // collapsed onto the basis): report zero mass.
            x.iter_mut().for_each(|v| *v = 0.0);
            evals.push(0.0);
        }
        basis.push(x);
    }
    // Deflation discovers eigenpairs in roughly — not exactly — descending
    // order; sort so the sketch is rank-aligned across graphs. total_cmp is
    // a deterministic total order, so this cannot break bit-exactness.
    evals.sort_unstable_by(|a: &f64, b: &f64| b.total_cmp(a));
    Ok(evals)
}

/// Streaming spectral sketch: the `cfg.eigenvalues` largest eigenvalues of
/// the normalized Laplacian, descending (up to power-iteration accuracy),
/// estimated with `iterations + 1` edge scans per eigenpair. Scratch is
/// O(`eigenvalues` * vertices + batch).
pub fn spectral_sketch_ooc<S: EdgeScan>(
    scan: &mut S,
    cfg: &SpectralConfig,
) -> Result<Vec<f64>, S::Error> {
    let _span = csb_obs::span_cat("ooc.spectral", "ooc");
    let n = scan.vertex_count()?;
    if cfg.eigenvalues.min(n) == 0 {
        return Ok(Vec::new());
    }
    let w = inv_sqrt_degrees(degree_counts_ooc(scan)?.total().into_iter());
    let evals = deflated_power_iteration(n, cfg, |x, y| lap_matvec_scan(scan, x, &w, y))?;
    note_peak_scratch(((evals.len() + 3) * n * 8) as u64 + scan.scratch_bytes());
    Ok(evals)
}

/// In-memory spectral sketch: the same power iteration over
/// [`Csr::undirected_of`], one row per pool task — bit-for-bit the streaming
/// kernel's result (see the module docs).
pub fn spectral_sketch<V, E>(g: &PropertyGraph<V, E>, cfg: &SpectralConfig) -> Vec<f64> {
    let adj = Csr::undirected_of(g);
    let w = inv_sqrt_degrees(adj.offsets().windows(2).map(|o| (o[1] - o[0]) as u64));
    let pulled = deflated_power_iteration(g.vertex_count(), cfg, |x, y| {
        lap_matvec_pull(&adj, x, &w, y);
        Ok::<(), Infallible>(())
    });
    match pulled {
        Ok(evals) => evals,
        Err(e) => match e {},
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ooc::GraphScan;

    fn graph(n: u32, edges: &[(u32, u32)]) -> PropertyGraph<(), ()> {
        let mut g = PropertyGraph::new();
        for _ in 0..n {
            g.add_vertex(());
        }
        for &(s, d) in edges {
            g.add_edge(VertexId(s), VertexId(d), ());
        }
        g
    }

    #[test]
    fn empty_graph_is_empty_sketch() {
        let g: PropertyGraph<(), ()> = PropertyGraph::new();
        assert!(spectral_sketch(&g, &SpectralConfig::default()).is_empty());
    }

    #[test]
    fn single_edge_spectrum() {
        // K2's normalized Laplacian has eigenvalues {0, 2}.
        let g = graph(2, &[(0, 1)]);
        let cfg = SpectralConfig { eigenvalues: 2, ..SpectralConfig::default() };
        let evals = spectral_sketch(&g, &cfg);
        assert!((evals[0] - 2.0).abs() < 1e-9, "lambda_max = {}", evals[0]);
        assert!(evals[1].abs() < 1e-9, "lambda_2 = {}", evals[1]);
    }

    #[test]
    fn triangle_spectrum() {
        // The triangle's normalized Laplacian spectrum is {0, 1.5, 1.5}.
        let g = graph(3, &[(0, 1), (1, 2), (2, 0)]);
        let cfg = SpectralConfig { eigenvalues: 3, ..SpectralConfig::default() };
        let evals = spectral_sketch(&g, &cfg);
        assert!((evals[0] - 1.5).abs() < 1e-6, "{evals:?}");
        assert!((evals[1] - 1.5).abs() < 1e-6, "{evals:?}");
        assert!(evals[2].abs() < 1e-6, "{evals:?}");
    }

    #[test]
    fn isolated_vertices_contribute_eigenvalue_one() {
        let g = graph(3, &[]);
        let evals = spectral_sketch(&g, &SpectralConfig::default());
        assert_eq!(evals.len(), 3);
        for l in &evals {
            assert!((l - 1.0).abs() < 1e-9, "{evals:?}");
        }
    }

    #[test]
    fn sketch_is_batching_invariant() {
        let edges: Vec<(u32, u32)> =
            (0..40u32).map(|i| (i % 9, (i * 7 + 3) % 9)).chain([(0, 0), (3, 3)]).collect();
        let g = graph(9, &edges);
        let cfg = SpectralConfig::default();
        let mem = spectral_sketch(&g, &cfg);
        for batch in [1usize, 2, 7, 64, usize::MAX] {
            let ooc = spectral_sketch_ooc(&mut GraphScan::of(&g).with_batch(batch), &cfg).unwrap();
            assert_eq!(mem.len(), ooc.len());
            for (a, b) in mem.iter().zip(ooc.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "batch {batch}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn eigenvalues_stay_in_range() {
        let edges: Vec<(u32, u32)> = (0..120u32).map(|i| (i % 25, (i * 13 + 1) % 25)).collect();
        let g = graph(30, &edges);
        let evals = spectral_sketch(&g, &SpectralConfig::default());
        assert_eq!(evals.len(), 6);
        for &l in &evals {
            assert!((-1e-9..=2.0 + 1e-9).contains(&l), "{evals:?}");
        }
        // Sorted descending by construction.
        for w in evals.windows(2) {
            assert!(w[0] >= w[1], "{evals:?}");
        }
    }

    #[test]
    fn seed_changes_start_vectors_but_barely_moves_converged_estimates() {
        // A star's normalized Laplacian has spectrum {0, 1, ..., 1, 2}: the
        // wide top gap makes the power iteration converge well within the
        // default budget, so the start seed must not matter.
        let edges: Vec<(u32, u32)> = (1..15u32).map(|i| (0, i)).collect();
        let g = graph(15, &edges);
        let a = spectral_sketch(&g, &SpectralConfig::default());
        let b = spectral_sketch(&g, &SpectralConfig { seed: 99, ..SpectralConfig::default() });
        assert!((a[0] - 2.0).abs() < 1e-9, "lambda_max = {}", a[0]);
        assert!((a[0] - b[0]).abs() < 1e-9, "{} vs {}", a[0], b[0]);
    }
}
