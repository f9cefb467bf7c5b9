//! Property-Graph Stochastic Kronecker (PGSK), paper Fig. 3.
//!
//! Pipeline:
//! 1. **Simplify** the seed multigraph to a plain graph `Gp` (one edge per
//!    vertex pair, attributes stripped) — lines 1-5, `O(|E|)` via hashing.
//! 2. **KronFit** a 2x2 initiator on `Gp` — line 6.
//! 3. **Kronecker expansion**: recursive-descent edge placement batches,
//!    deduplicated (`distinct()`), repeated until the distinct-edge target
//!    is met — line 7.
//! 4. **Multi-edge re-inflation**: each distinct edge is duplicated
//!    `sample(outDegree)` times so the multigraph character of NetFlow data
//!    returns — lines 8-12.
//! 5. **Attribute generation** for every edge — lines 13-18.

use crate::analysis::SeedAnalysis;
use crate::config::PgskConfig;
use crate::kronecker::{generate_edges, kronfit, Initiator};
use crate::seed::SeedBundle;
use crate::topo::{edge_windows, Topology};
use csb_graph::NetflowGraph;
use csb_stats::rng::{derive_seed, rng_for};
use csb_stats::EmpiricalDistribution;
use rayon::prelude::*;
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Mean of `max(sample, 1)` under a distribution — the expected duplication
/// factor of step 4 (duplication counts are clamped to >= 1 so no distinct
/// edge disappears).
pub(crate) fn mean_duplication(d: &EmpiricalDistribution) -> f64 {
    let total: f64 = d.weights().iter().sum();
    d.support().iter().zip(d.weights().iter()).map(|(&v, &w)| v.max(1) as f64 * w).sum::<f64>()
        / total
}

/// Deduplicates a topology's edges (Fig. 3 lines 1-5).
pub fn simplify(topo: &Topology) -> Vec<(u32, u32)> {
    let mut set: HashSet<(u32, u32)> = HashSet::with_capacity(topo.edge_count());
    for (&s, &d) in topo.src.iter().zip(topo.dst.iter()) {
        set.insert((s, d));
    }
    let mut edges: Vec<(u32, u32)> = set.into_iter().collect();
    edges.sort_unstable();
    edges
}

/// Result of the expansion phase: distinct Kronecker edges plus the model.
#[derive(Debug, Clone)]
pub struct KroneckerExpansion {
    /// The fitted initiator.
    pub initiator: Initiator,
    /// Kronecker power used.
    pub k: u32,
    /// Distinct generated edges.
    pub edges: Vec<(u64, u64)>,
    /// Descent batches needed (the "iterations" of the paper's Section V).
    pub batches: u32,
}

/// RNG stream for descent batch `batch` under `master`.
///
/// Mixed through [`derive_seed`] rather than added: `master + batch` would
/// make batch `b` of master seed `s` replay batch `b-1` of master seed
/// `s + 1`, so adjacent seeds shared most of their expansions.
fn batch_stream(master: u64, batch: u64) -> u64 {
    derive_seed(master, batch)
}

/// Runs steps 1-3: fit and expand until `target_distinct` distinct edges
/// exist (or the space is exhausted).
pub fn expand(
    seed_edges: &[(u32, u32)],
    num_vertices: u32,
    target_distinct: u64,
    cfg: &PgskConfig,
) -> KroneckerExpansion {
    let initiator = kronfit(
        seed_edges,
        num_vertices,
        cfg.kronfit_iterations,
        cfg.kronfit_permutation_samples,
        cfg.seed,
    );
    // Pick k so the expected edge count covers the target; headroom of 2x
    // counters dedup losses.
    let k = initiator.iterations_for_edges(target_distinct as f64 * 2.0).min(31);
    let mut distinct: HashSet<(u64, u64)> = HashSet::with_capacity(target_distinct as usize);
    let mut batches = 0u32;
    while (distinct.len() as u64) < target_distinct {
        batches += 1;
        let remaining = target_distinct - distinct.len() as u64;
        // Oversample slightly: some placements collide.
        let batch = (remaining as usize * 5 / 4).max(64);
        for e in generate_edges(&initiator, k, batch, batch_stream(cfg.seed, batches as u64)) {
            distinct.insert(e);
        }
        assert!(
            batches < 10_000,
            "Kronecker expansion failed to reach {target_distinct} distinct edges \
             (space too small for the fitted initiator)"
        );
    }
    let mut edges: Vec<(u64, u64)> = distinct.into_iter().collect();
    edges.sort_unstable();
    KroneckerExpansion { initiator, k, edges, batches }
}

/// Steps 1-3 for a seed topology: simplify, fit, expand to the distinct-edge
/// target implied by `desired_size` and the seed's duplication factor.
fn expansion_for(
    seed_topo: &Topology,
    analysis: &SeedAnalysis,
    cfg: &PgskConfig,
) -> KroneckerExpansion {
    let _grow = csb_obs::span_cat("pgsk.grow", "gen");
    let simple = simplify(seed_topo);
    let dup = mean_duplication(&analysis.out_degree).max(1.0);
    let target_distinct = ((cfg.desired_size as f64 / dup).ceil() as u64).max(1);
    let expansion = expand(&simple, seed_topo.num_vertices, target_distinct, cfg);
    csb_obs::counter_add("pgsk.expansion_batches", expansion.batches as u64);
    csb_obs::counter_add("pgsk.distinct_edges", expansion.edges.len() as u64);
    csb_obs::obs_debug!(
        "pgsk expansion: k={}, {} distinct edges in {} batches",
        expansion.k,
        expansion.edges.len(),
        expansion.batches
    );
    expansion
}

/// Distinct edges per deterministic RNG stream in [`inflate`].
const INFLATE_CHUNK: usize = 4096;

/// Step 4, multi-edge re-inflation: compact the Kronecker vertex slots to
/// dense ids, sample each distinct edge's copy count, and materialize the
/// copies through the count → prefix-sum → parallel-write scheme. Copy
/// counts come from one deterministic RNG stream per [`INFLATE_CHUNK`]
/// distinct edges, so the output is independent of the worker count.
fn inflate(expansion: &KroneckerExpansion, analysis: &SeedAnalysis, cfg: &PgskConfig) -> Topology {
    let _inflate = csb_obs::span_cat("pgsk.inflate", "gen");
    // Compact vertex ids (serial first-touch order, no RNG): only vertices
    // touched by edges get ids, so the output is not dominated by the
    // 2^k - |touched| isolated slots.
    let mut remap: std::collections::HashMap<u64, u32> =
        std::collections::HashMap::with_capacity(expansion.edges.len());
    let mut next = 0u32;
    let mut id_of = |slot: u64, remap: &mut std::collections::HashMap<u64, u32>| -> u32 {
        *remap.entry(slot).or_insert_with(|| {
            let id = next;
            next += 1;
            id
        })
    };
    let remapped: Vec<(u32, u32)> = expansion
        .edges
        .iter()
        .map(|&(u, v)| {
            let su = id_of(u, &mut remap);
            let sv = id_of(v, &mut remap);
            (su, sv)
        })
        .collect();

    let counts: Vec<usize> = remapped
        .par_chunks(INFLATE_CHUNK)
        .enumerate()
        .flat_map_iter(|(chunk_idx, chunk)| {
            let mut rng = rng_for(cfg.seed, 0xD0B_0000_0000 + chunk_idx as u64);
            chunk
                .iter()
                .map(move |_| analysis.out_degree.sample(&mut rng).max(1) as usize)
                .collect::<Vec<_>>()
        })
        .collect();

    let total: usize = counts.iter().sum();
    let mut src = vec![0u32; total];
    let mut dst = vec![0u32; total];
    let windows = edge_windows(&counts, &mut src, &mut dst);
    windows.into_par_iter().zip(&remapped).for_each(|((win_src, win_dst), &(su, sv))| {
        win_src.fill(su);
        win_dst.fill(sv);
    });
    csb_obs::counter_add("pgsk.edges_inflated", total as u64);
    Topology { num_vertices: next, src, dst }
}

/// Grows the topology only (steps 1-4) — shared with the no-properties
/// benchmarks.
pub fn pgsk_topology(seed_topo: &Topology, analysis: &SeedAnalysis, cfg: &PgskConfig) -> Topology {
    pgsk_topology_phases(seed_topo, analysis, cfg).0
}

/// [`pgsk_topology`] with the wall time of steps 1-3 (grow) and of step 4
/// (inflate), the split [`GenJob::timed`](crate::GenJob::timed) reports.
pub(crate) fn pgsk_topology_phases(
    seed_topo: &Topology,
    analysis: &SeedAnalysis,
    cfg: &PgskConfig,
) -> (Topology, Duration, Duration) {
    cfg.validate();
    assert!(seed_topo.edge_count() > 0, "PGSK needs a non-empty seed");
    let t0 = Instant::now();
    let expansion = expansion_for(seed_topo, analysis, cfg);
    let grow = t0.elapsed();
    let t1 = Instant::now();
    let topo = inflate(&expansion, analysis, cfg);
    (topo, grow, t1.elapsed())
}

/// Runs the full PGSK generator.
///
/// Compatibility wrapper: prefer [`GenJob::pgsk`](crate::GenJob::pgsk),
/// which also covers the timed, distributed, sink, and checkpointed-store
/// execution paths.
pub fn pgsk(seed: &SeedBundle, cfg: &PgskConfig) -> NetflowGraph {
    let run = crate::GenJob::pgsk(seed, *cfg).run().expect("in-memory runs cannot fail");
    run.graph.expect("memory output always holds the graph")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seed::seed_from_trace;
    use csb_net::traffic::sim::{TrafficSim, TrafficSimConfig};

    fn small_seed() -> SeedBundle {
        let trace = TrafficSim::new(TrafficSimConfig {
            duration_secs: 15.0,
            sessions_per_sec: 20.0,
            seed: 77,
            ..TrafficSimConfig::default()
        })
        .generate();
        seed_from_trace(&trace)
    }

    fn fast_cfg(desired_size: u64, seed: u64) -> PgskConfig {
        PgskConfig { desired_size, seed, kronfit_iterations: 8, kronfit_permutation_samples: 200 }
    }

    #[test]
    fn simplify_removes_multi_edges() {
        let topo = Topology { num_vertices: 3, src: vec![0, 0, 0, 1], dst: vec![1, 1, 2, 2] };
        let simple = simplify(&topo);
        assert_eq!(simple, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn mean_duplication_clamps_zero() {
        let d = EmpiricalDistribution::from_weighted([(0, 1.0), (3, 1.0)]);
        // max(0,1)=1, max(3,1)=3 -> mean 2.
        assert!((mean_duplication(&d) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn reaches_size_within_tolerance() {
        let seed = small_seed();
        let target = seed.edge_count() as u64 * 4;
        let g = pgsk(&seed, &fast_cfg(target, 1));
        let got = g.edge_count() as u64;
        // The duplication step is stochastic; the paper notes sizes can only
        // be controlled coarsely. Expect within 2x either way.
        assert!(got >= target / 2 && got <= target * 2, "target {target}, got {got}");
    }

    #[test]
    fn can_generate_smaller_than_seed() {
        // Paper Section V-A: PGSK starts from as low as 100 edges.
        let seed = small_seed();
        let g = pgsk(&seed, &fast_cfg(100, 2));
        assert!(g.edge_count() >= 50);
        assert!(g.edge_count() < seed.edge_count());
    }

    #[test]
    fn deterministic_given_seed() {
        let seed = small_seed();
        let a = pgsk(&seed, &fast_cfg(2000, 3));
        let b = pgsk(&seed, &fast_cfg(2000, 3));
        assert_eq!(a.edge_count(), b.edge_count());
        for (ea, eb) in a.edges().zip(b.edges()) {
            assert_eq!(ea.1, eb.1);
            assert_eq!(ea.2, eb.2);
            assert_eq!(ea.3, eb.3);
        }
    }

    #[test]
    fn multi_edge_structure_returns() {
        let seed = small_seed();
        let g = pgsk(&seed, &fast_cfg(seed.edge_count() as u64 * 2, 4));
        let mut pairs: std::collections::HashMap<(u32, u32), u32> =
            std::collections::HashMap::new();
        for (_, s, d, _) in g.edges() {
            *pairs.entry((s.0, d.0)).or_insert(0) += 1;
        }
        assert!(pairs.values().any(|&c| c > 1), "re-inflation must produce multi-edges");
    }

    #[test]
    fn adjacent_master_seeds_produce_disjoint_expansions() {
        // Regression: the batch stream used to be `master + batch`, so batch
        // b of master seed s replayed batch b-1 of master seed s+1 and
        // adjacent seeds shared most of their expansion edges.
        for s in [0u64, 9, 1234] {
            for b in 1..6u64 {
                assert_ne!(batch_stream(s, b), batch_stream(s + 1, b - 1));
            }
        }
        let init = Initiator::classic();
        let a = generate_edges(&init, 8, 512, batch_stream(42, 2));
        let b = generate_edges(&init, 8, 512, batch_stream(43, 1));
        assert_ne!(a, b, "adjacent master seeds must not replay each other's batches");
    }

    #[test]
    fn expansion_metadata_is_consistent() {
        let seed = small_seed();
        let topo = Topology::of_graph(&seed.graph);
        let simple = simplify(&topo);
        let exp = expand(&simple, topo.num_vertices, 1000, &fast_cfg(1000, 5));
        assert!(exp.edges.len() >= 1000);
        assert!(exp.batches >= 1);
        let n = Initiator::num_vertices(exp.k);
        assert!(exp.edges.iter().all(|&(u, v)| u < n && v < n));
        // Distinctness.
        let set: HashSet<_> = exp.edges.iter().collect();
        assert_eq!(set.len(), exp.edges.len());
    }
}
