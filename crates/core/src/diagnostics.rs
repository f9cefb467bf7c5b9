//! Structural diagnostics beyond degree/PageRank — the extra properties the
//! paper names as candidates for richer generation methods (betweenness
//! centrality, connected components) plus the clustering statistics the
//! BTER literature tracks. Used by the `structural_report` harness and the
//! extended-veracity comparison.

use csb_graph::algo::{
    approximate_betweenness, average_clustering, core_numbers, degree_assortativity, pagerank,
    strongly_connected_components, triangle_count, weakly_connected_components, PageRankConfig,
};
use csb_graph::NetflowGraph;
use csb_stats::PowerLaw;
use std::time::Duration;

/// Per-phase wall-clock timings of one generator run, for the repo
/// benchmark's `core.*` layers and the timed harness binaries.
///
/// Phases mirror the paper's pipeline split: **grow** (topology growth /
/// Kronecker expansion), **inflate** (PGSK multi-edge re-inflation; zero for
/// PGPBA, whose growth materializes edges directly), and **attach**
/// (attribute sampling + graph assembly).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTimings {
    /// Generator name (`"pgpba"` / `"pgsk"`).
    pub generator: &'static str,
    /// Edges in the finished graph.
    pub edges: usize,
    /// Topology growth (PGPBA iterations / PGSK simplify+fit+expand).
    pub grow: Duration,
    /// PGSK multi-edge re-inflation (zero for PGPBA).
    pub inflate: Duration,
    /// Attribute sampling and bulk graph assembly.
    pub attach: Duration,
}

impl PhaseTimings {
    /// Starts a timing record with all phases at zero.
    pub fn new(generator: &'static str, edges: usize) -> Self {
        PhaseTimings {
            generator,
            edges,
            grow: Duration::ZERO,
            inflate: Duration::ZERO,
            attach: Duration::ZERO,
        }
    }

    /// Total wall-clock time over all phases.
    pub fn total(&self) -> Duration {
        self.grow + self.inflate + self.attach
    }

    /// Throughput over the whole run (0 when the total rounds to zero).
    pub fn edges_per_sec(&self) -> f64 {
        let secs = self.total().as_secs_f64();
        if secs > 0.0 {
            self.edges as f64 / secs
        } else {
            0.0
        }
    }
}

/// A structural fingerprint of one graph.
#[derive(Debug, Clone, PartialEq)]
pub struct StructuralReport {
    /// Vertex count.
    pub vertices: usize,
    /// Edge count (multi-edges counted).
    pub edges: usize,
    /// Mean total degree.
    pub mean_degree: f64,
    /// Maximum total degree.
    pub max_degree: u64,
    /// MLE power-law exponent of the degree tail (xmin = 6), if fittable.
    pub powerlaw_alpha: Option<f64>,
    /// Average local clustering coefficient.
    pub clustering: f64,
    /// Undirected triangle count.
    pub triangles: u64,
    /// Weakly connected component count.
    pub wcc_count: usize,
    /// Fraction of vertices in the largest component.
    pub largest_wcc_fraction: f64,
    /// Largest PageRank score (hub concentration).
    pub pagerank_top_share: f64,
    /// Mean betweenness over a vertex sample.
    pub mean_betweenness: f64,
    /// Strongly connected component count.
    pub scc_count: usize,
    /// Graph degeneracy (maximum k-core).
    pub degeneracy: u32,
    /// Newman degree assortativity.
    pub assortativity: f64,
}

/// Number of Brandes sources sampled for the betweenness estimate.
const BETWEENNESS_SAMPLES: usize = 32;

impl StructuralReport {
    /// Computes the full report.
    ///
    /// # Panics
    /// Panics on an empty graph.
    pub fn of(g: &NetflowGraph) -> Self {
        assert!(g.vertex_count() > 0, "report of empty graph");
        let degrees: Vec<u64> =
            g.in_degrees().iter().zip(g.out_degrees().iter()).map(|(a, b)| a + b).collect();
        let mean_degree = degrees.iter().sum::<u64>() as f64 / degrees.len() as f64;
        let max_degree = *degrees.iter().max().expect("non-empty");
        let powerlaw_alpha = PowerLaw::fit(degrees.iter().copied(), 6).map(|p| p.alpha);
        let wcc = weakly_connected_components(g);
        let pr = pagerank(g, &PageRankConfig::default());
        let pagerank_top_share = pr.iter().copied().fold(0.0f64, f64::max);
        let bc = approximate_betweenness(g, BETWEENNESS_SAMPLES.min(g.vertex_count()), 0x8C);
        let mean_betweenness = bc.iter().sum::<f64>() / bc.len() as f64;
        let scc = strongly_connected_components(g);
        let degeneracy = core_numbers(g).into_iter().max().unwrap_or(0);
        StructuralReport {
            vertices: g.vertex_count(),
            edges: g.edge_count(),
            mean_degree,
            max_degree,
            powerlaw_alpha,
            clustering: average_clustering(g),
            triangles: triangle_count(g),
            wcc_count: wcc.count,
            largest_wcc_fraction: wcc.largest as f64 / g.vertex_count() as f64,
            pagerank_top_share,
            mean_betweenness,
            scc_count: scc.count,
            degeneracy,
            assortativity: degree_assortativity(g),
        }
    }
}

/// Relative gaps between two structural reports (0 = identical on that
/// dimension). `rel(a, b) = |a - b| / max(|a|, |b|, eps)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StructuralGaps {
    /// Mean-degree gap.
    pub mean_degree: f64,
    /// Power-law exponent gap (1.0 when only one side is fittable).
    pub powerlaw_alpha: f64,
    /// Clustering-coefficient gap.
    pub clustering: f64,
    /// Largest-WCC-fraction gap.
    pub largest_wcc_fraction: f64,
    /// PageRank hub-concentration gap.
    pub pagerank_top_share: f64,
}

fn rel(a: f64, b: f64) -> f64 {
    let denom = a.abs().max(b.abs()).max(1e-12);
    (a - b).abs() / denom
}

/// Compares two reports dimension by dimension.
pub fn structural_gaps(a: &StructuralReport, b: &StructuralReport) -> StructuralGaps {
    StructuralGaps {
        mean_degree: rel(a.mean_degree, b.mean_degree),
        powerlaw_alpha: match (a.powerlaw_alpha, b.powerlaw_alpha) {
            (Some(x), Some(y)) => rel(x, y),
            (None, None) => 0.0,
            _ => 1.0,
        },
        clustering: rel(a.clustering, b.clustering),
        largest_wcc_fraction: rel(a.largest_wcc_fraction, b.largest_wcc_fraction),
        pagerank_top_share: rel(a.pagerank_top_share, b.pagerank_top_share),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PgpbaConfig;
    use crate::seed::{seed_from_trace, SeedBundle};
    use csb_net::traffic::sim::{TrafficSim, TrafficSimConfig};

    fn small_seed() -> SeedBundle {
        let trace = TrafficSim::new(TrafficSimConfig {
            duration_secs: 12.0,
            sessions_per_sec: 15.0,
            seed: 13,
            ..TrafficSimConfig::default()
        })
        .generate();
        seed_from_trace(&trace)
    }

    #[test]
    fn report_fields_are_sane() {
        let seed = small_seed();
        let r = StructuralReport::of(&seed.graph);
        assert_eq!(r.vertices, seed.graph.vertex_count());
        assert_eq!(r.edges, seed.graph.edge_count());
        assert!(r.mean_degree > 0.0);
        assert!(r.max_degree as f64 >= r.mean_degree);
        assert!((0.0..=1.0).contains(&r.clustering));
        assert!((0.0..=1.0).contains(&r.largest_wcc_fraction));
        assert!(r.pagerank_top_share > 0.0 && r.pagerank_top_share < 1.0);
        assert!(r.wcc_count >= 1);
        assert!(r.mean_betweenness >= 0.0);
        assert!(r.scc_count >= r.wcc_count);
        assert!(r.degeneracy >= 1);
        assert!((-1.0..=1.0).contains(&r.assortativity));
    }

    #[test]
    fn self_gaps_are_zero() {
        let seed = small_seed();
        let r = StructuralReport::of(&seed.graph);
        let g = structural_gaps(&r, &r);
        assert_eq!(g.mean_degree, 0.0);
        assert_eq!(g.clustering, 0.0);
        assert_eq!(g.pagerank_top_share, 0.0);
    }

    #[test]
    fn phase_timings_totals() {
        let t = PhaseTimings {
            grow: Duration::from_millis(250),
            inflate: Duration::from_millis(150),
            attach: Duration::from_millis(100),
            ..PhaseTimings::new("pgsk", 1_000_000)
        };
        assert_eq!(t.total(), std::time::Duration::from_millis(500));
        assert!((t.edges_per_sec() - 2_000_000.0).abs() < 1.0);
    }

    #[test]
    fn timed_runs_match_untimed_output() {
        let seed = small_seed();
        let cfg = PgpbaConfig { desired_size: 2_000, fraction: 0.4, seed: 11 };
        let run = crate::GenJob::pgpba(&seed, cfg).timed().run().expect("run");
        let (g, t) = (run.graph.expect("graph"), run.timings.expect("timings"));
        let plain = crate::pgpba(&seed, &cfg);
        assert_eq!(g.edge_count(), plain.edge_count());
        assert_eq!(t.edges, g.edge_count());
        assert_eq!(t.inflate, std::time::Duration::ZERO);

        let pcfg = crate::PgskConfig {
            desired_size: 1_500,
            seed: 11,
            kronfit_iterations: 8,
            kronfit_permutation_samples: 200,
        };
        let run = crate::GenJob::pgsk(&seed, pcfg).timed().run().expect("run");
        let (g, t) = (run.graph.expect("graph"), run.timings.expect("timings"));
        let plain = crate::pgsk(&seed, &pcfg);
        assert_eq!(g.edge_count(), plain.edge_count());
        assert_eq!(t.edges, g.edge_count());
    }

    #[test]
    fn pgpba_keeps_structural_gaps_moderate() {
        let seed = small_seed();
        let synth = crate::pgpba(
            &seed,
            &PgpbaConfig { desired_size: seed.edge_count() as u64 * 8, fraction: 0.2, seed: 3 },
        );
        let gaps =
            structural_gaps(&StructuralReport::of(&seed.graph), &StructuralReport::of(&synth));
        // The generator explicitly targets degrees; these coarse structural
        // gaps should stay bounded even for untargeted statistics.
        assert!(gaps.mean_degree < 0.8, "mean degree gap {}", gaps.mean_degree);
        assert!(gaps.largest_wcc_fraction < 0.5, "wcc gap {}", gaps.largest_wcc_fraction);
    }
}
